/**
 * @file
 * End-to-end exactly-once delivery: the NIC transport layer under
 * targeted kills, heals and soft-fault storms.
 *
 * The guarantee under test upgrades the hard-fault write-off story:
 * with `e2e_transport` on, a packet caught on dying hardware is no
 * longer lost — the source retransmits it after its E2E timeout and
 * the destination suppresses any duplicate attempt, so the delivery
 * identity becomes `ejected + deliveryFailures == injected` with
 * `packetsLostHard == 0`, and when every fault heals within the
 * retry budget, `deliveryFailures == 0` too. All of it is a pure
 * function of the seeds, so both scheduling kernels produce
 * bit-identical NetworkStats, cycle by cycle.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "support/kernel_lockstep.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kRun = 1200;
constexpr Cycle kDrainLimit = 500000;
constexpr std::uint64_t kSeed = 0xE2E5EED;

/** Transport on, with a short timeout so retransmissions land inside
 *  the test horizon instead of deep in the drain. */
FaultParams
transportFaults(Cycle timeout = 300)
{
    FaultParams f;
    f.enabled = true;
    f.e2eTransport = true;
    f.e2eTimeout = timeout;
    return f;
}

std::unique_ptr<Network>
buildNetwork(RouterArch arch, SchedulingMode mode,
             const FaultParams &faults, double load = 0.08,
             int packet_flits = 3, int vc_count = 1)
{
    NetworkParams params;
    params.width = 8;
    params.height = 8;
    params.schedulingMode = mode;
    params.faults = faults;
    params.router.vcCount = vc_count;
    auto net = makeNetwork(params, arch);

    static const Mesh mesh(8, 8);
    static const DestinationPattern pat(PatternKind::UniformRandom,
                                        mesh, 0.2);
    Rng seeder(kSeed);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pat, load, packet_flits, seeder.next()));
    }
    return net;
}

/** Run the horizon, stop the sources, drain, and enforce the
 *  transport conservation identity; returns the final stats. */
NetworkStats
finishChecked(Network &net)
{
    if (net.now() < kRun)
        net.run(kRun - net.now());
    net.setSourcesEnabled(false);
    EXPECT_TRUE(net.drain(kDrainLimit))
        << net.lastDrainReport().summary();

    const NetworkStats &s = net.stats();
    // Exactly-once accounting: every accepted packet is delivered or
    // explicitly abandoned after retry exhaustion — and under the
    // transport nothing is ever silently written off.
    EXPECT_EQ(s.packetsEjected + s.faults.deliveryFailures,
              s.packetsInjected)
        << "transport conservation identity violated";
    EXPECT_EQ(s.faults.packetsLostHard, 0u)
        << "hard write-off leaked past the transport";
    const DrainReport &rep = net.lastDrainReport();
    EXPECT_EQ(rep.stalledPackets, 0u);
    EXPECT_EQ(rep.undeliverablePackets, s.faults.deliveryFailures);
    return s;
}

TEST(E2eTransport, LinkKillAndHealDeliversEverything)
{
    // Kill one mesh link mid-run and heal it 300 cycles later: the
    // casualties retransmit and land, so the run ends with zero
    // abandoned packets despite real in-flight losses.
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick,
                            transportFaults(), /*load=*/0.15,
                            /*packet_flits=*/5);
    ASSERT_NE(net->faultInjector(), nullptr);
    net->faultInjector()->scheduleOneShot(FaultKind::LinkDead,
                                          /*cycle=*/400,
                                          /*router=*/27, kPortEast);
    net->faultInjector()->scheduleOneShot(FaultKind::LinkHeal,
                                          /*cycle=*/700,
                                          /*router=*/27, kPortEast);
    net->run(500);
    EXPECT_TRUE(net->faultMap().linkDead(27, kPortEast));
    EXPECT_TRUE(net->faultMap().linkDead(28, kPortWest));

    const NetworkStats s = finishChecked(*net);
    EXPECT_EQ(s.faults.hardLinkFaults, 1u);
    EXPECT_EQ(s.faults.linkHeals, 1u);
    EXPECT_FALSE(net->faultMap().linkDead(27, kPortEast));
    EXPECT_GT(s.faults.flitsLostHard, 0u)
        << "kill at load 0.15 caught no in-flight flits; the "
           "retransmission path went untested";
    EXPECT_GT(s.faults.e2eRetransmits, 0u);
    EXPECT_EQ(s.faults.deliveryFailures, 0u)
        << "every fault healed inside the retry budget, yet packets "
           "were abandoned";
    EXPECT_GE(s.faults.tableRebuilds, 2u); // kill + heal
}

TEST(E2eTransport, RouterKillAndHealDeliversEverything)
{
    // A whole router (and its terminal) dies for 500 cycles. E2E
    // resends toward the dead terminal fail-and-rearm, burning
    // retries; after the heal they land. Nothing is abandoned and
    // the healed table routes every pair again.
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::ActivityDriven,
                            transportFaults(), /*load=*/0.1);
    net->faultInjector()->scheduleOneShot(FaultKind::RouterDead,
                                          /*cycle=*/400,
                                          /*router=*/27, /*port=*/-1);
    net->faultInjector()->scheduleOneShot(FaultKind::RouterHeal,
                                          /*cycle=*/900,
                                          /*router=*/27, /*port=*/-1);
    net->run(500);
    EXPECT_TRUE(net->faultMap().routerDead(27));
    EXPECT_FALSE(net->routingTable().reachable(0, 27));

    const NetworkStats s = finishChecked(*net);
    EXPECT_EQ(s.faults.hardRouterFaults, 1u);
    EXPECT_EQ(s.faults.routerHeals, 1u);
    EXPECT_EQ(s.faults.deliveryFailures, 0u);
    EXPECT_GT(s.faults.e2eRetransmits, 0u);
    // The healed mesh is whole again: full reachability, no dead
    // entities left behind.
    EXPECT_EQ(net->faultMap().deadRouterCount(), 0);
    EXPECT_EQ(net->faultMap().explicitDeadLinkCount(), 0);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        EXPECT_TRUE(net->routingTable().reachable(n, 27));
        EXPECT_TRUE(net->routingTable().reachable(27, n));
    }
}

TEST(E2eTransport, SoftFaultStormSuppressesDuplicates)
{
    // An aggressive timeout under lossy links forces spurious
    // retransmissions of packets that were merely slow: their extra
    // copies must be counted and suppressed at the door, never
    // double-delivered (the sink asserts payload integrity; nettest's
    // DupChecker covers flow-level duplicates at soak scale).
    FaultParams f = transportFaults(/*timeout=*/25);
    f.e2eRetryLimit = 40;
    f.dropRate = 0.001;
    f.bitflipRate = 0.001;
    f.seed = 0xD15EA5E;
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick, f);
    const NetworkStats s = finishChecked(*net);
    EXPECT_GT(s.faults.e2eRetransmits, 0u);
    EXPECT_GT(s.faults.dupSuppressed, 0u)
        << "a 60-cycle timeout produced no duplicate attempts";
    EXPECT_GT(s.packetsEjected, 0u);
}

TEST(E2eTransport, ChurnStatsBitIdenticalAcrossKernels)
{
    // The transport sweep, the churn schedule and the heal replay are
    // all clocked off committed state, so the two scheduling kernels
    // must agree bit-for-bit, at every cycle, even under kill+heal
    // churn plus soft faults.
    FaultParams f = transportFaults();
    f.churnWaves = 2;
    f.churnStart = 300;
    f.churnPeriod = 400;
    f.churnHealAfter = 200;
    f.dropRate = 0.0005;
    f.seed = 0xD15EA5E;

    auto reference = buildNetwork(RouterArch::Nox,
                                  SchedulingMode::AlwaysTick, f);
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::ActivityDriven, f);
    test::KernelLockstep lockstep(*reference, *net);
    const auto run = lockstep.run(kRun);
    ASSERT_FALSE(run) << *run;
    const auto drained = lockstep.drain(kDrainLimit);
    ASSERT_FALSE(drained) << *drained;

    const NetworkStats ref = finishChecked(*reference);
    EXPECT_GT(ref.faults.linkHeals + ref.faults.routerHeals, 0u);
    EXPECT_TRUE(identicalStats(ref, finishChecked(*net)))
        << "activity diverged from alwaystick under churn";
}

TEST(E2eTransport, OffByDefaultKeepsHardWriteOffSemantics)
{
    // Without the transport the original contract still holds: a
    // mid-run router kill writes off its in-flight casualties,
    // explicitly counted — proving the new layer is strictly opt-in.
    // (A router kill, not a link kill: a single credit-stalled link
    // can be empty at the kill instant, but a loaded router's
    // buffers cannot.)
    FaultParams f;
    f.enabled = true;
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick, f,
                            /*load=*/0.22, /*packet_flits=*/5);
    net->faultInjector()->scheduleOneShot(FaultKind::RouterDead,
                                          /*cycle=*/400,
                                          /*router=*/27, /*port=*/-1);
    net->run(kRun);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(kDrainLimit))
        << net->lastDrainReport().summary();
    const NetworkStats &s = net->stats();
    EXPECT_EQ(net->transport(), nullptr);
    EXPECT_EQ(s.faults.hardRouterFaults, 1u);
    EXPECT_GT(s.faults.packetsLostHard, 0u);
    EXPECT_EQ(s.packetsEjected + s.faults.packetsLostHard,
              s.packetsInjected);
    EXPECT_EQ(s.faults.e2eRetransmits, 0u);
    EXPECT_EQ(s.faults.dupSuppressed, 0u);
}

} // namespace
} // namespace nox
