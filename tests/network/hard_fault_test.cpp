/**
 * @file
 * Hard (fail-stop) faults end to end: config-time and mid-run link or
 * router kills on every router architecture, under every scheduling
 * kernel.
 *
 * The delivery guarantee under test: with the mesh degraded by hard
 * faults, every injected packet is either delivered uncorrupted or
 * explicitly written off (in flight on dying hardware) — and every
 * injection toward an unreachable destination is refused and counted
 * at the boundary. No silent losses, no drain timeouts, and the whole
 * fault schedule is a pure function of the fault seed, so both
 * scheduling kernels produce bit-identical NetworkStats — and agree
 * on the full state digest at every cycle when stepped in lockstep.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "routers/vc_router.hpp"
#include "support/kernel_lockstep.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kRun = 1200;
constexpr Cycle kDrainLimit = 500000;
constexpr std::uint64_t kSeed = 0xF1683;

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

/** Run, drain, and enforce the delivery guarantee; returns stats. */
NetworkStats
runChecked(RouterArch arch, SchedulingMode mode,
           const FaultParams &faults, int vc_count = 1)
{
    auto net = buildNetwork(arch, mode, faults, 0.08, 3, vc_count);
    net->run(kRun);
    net->setSourcesEnabled(false);
    EXPECT_TRUE(net->drain(kDrainLimit))
        << archName(arch) << "/" << schedulingModeName(mode) << ": "
        << net->lastDrainReport().summary();

    const NetworkStats &s = net->stats();
    // Conservation: delivered + written-off == injected, exactly.
    EXPECT_EQ(s.packetsEjected + s.faults.packetsLostHard,
              s.packetsInjected)
        << archName(arch) << ": silent packet loss";
    // Nothing stalled; written-off packets are accounted losses.
    const DrainReport &rep = net->lastDrainReport();
    EXPECT_EQ(rep.stalledPackets, 0u);
    EXPECT_EQ(rep.undeliverablePackets, s.faults.packetsLostHard);
    // Payload integrity held on every delivery (asserted in the sink;
    // the escape counter double-checks no corruption slipped out).
    EXPECT_EQ(s.faults.corruptedEscapes, 0u);
    return s;
}

FaultParams
hardFaults(int links, int routers, Cycle at,
           std::uint64_t seed = 0xC0FFEE)
{
    FaultParams f;
    f.enabled = true;
    f.hardLinkFaults = links;
    f.hardRouterFaults = routers;
    f.hardFaultCycle = at;
    f.seed = seed;
    return f;
}

class HardFaults : public ::testing::TestWithParam<RouterArch>
{
};

TEST_P(HardFaults, ConfigTimeLinkKillsKernelsBitIdentical)
{
    // Four links die before any traffic: the acceptance scenario.
    // Nothing is ever in flight on dying hardware, so zero packets
    // are written off — and the kernels agree bit for bit, cycle by
    // cycle.
    const RouterArch arch = GetParam();
    const FaultParams f = hardFaults(4, 0, 0);
    const NetworkStats tick =
        runChecked(arch, SchedulingMode::AlwaysTick, f);
    EXPECT_EQ(tick.faults.hardLinkFaults, 4u);
    EXPECT_EQ(tick.faults.tableRebuilds, 1u);
    EXPECT_EQ(tick.faults.packetsLostHard, 0u);
    EXPECT_GT(tick.packetsEjected, 0u);

    auto twin = buildNetwork(arch, SchedulingMode::AlwaysTick, f);
    auto net = buildNetwork(arch, SchedulingMode::ActivityDriven, f);
    test::KernelLockstep lockstep(*twin, *net);
    const auto run = lockstep.run(kRun);
    ASSERT_FALSE(run) << archName(arch) << ": " << *run;
    const auto drained = lockstep.drain(kDrainLimit);
    ASSERT_FALSE(drained) << archName(arch) << ": " << *drained;
    EXPECT_TRUE(identicalStats(tick, net->stats()))
        << archName(arch) << ": kernels diverged under hard faults";
}

TEST_P(HardFaults, MidRunKillsDegradeGracefully)
{
    // Links and a router die in the middle of a busy run: in-flight
    // casualties are written off, the table is rebuilt, and the
    // drained network still satisfies exact conservation.
    const RouterArch arch = GetParam();
    const FaultParams f = hardFaults(2, 1, kRun / 2);
    const NetworkStats tick =
        runChecked(arch, SchedulingMode::AlwaysTick, f);
    EXPECT_EQ(tick.faults.hardLinkFaults, 2u);
    EXPECT_EQ(tick.faults.hardRouterFaults, 1u);
    EXPECT_GE(tick.faults.tableRebuilds, 1u);
    EXPECT_GT(tick.packetsEjected, 0u);
    // A dying router under load takes its queued traffic with it.
    EXPECT_GT(tick.faults.packetsLostHard, 0u);
    // Dead terminals make some destinations unreachable; sources keep
    // addressing them and every such injection is counted, refused.
    EXPECT_GT(tick.faults.unreachableRejected, 0u);

    const NetworkStats activity =
        runChecked(arch, SchedulingMode::ActivityDriven, f);
    EXPECT_TRUE(identicalStats(tick, activity))
        << archName(arch)
        << ": kernels diverged across a mid-run kill";
}

TEST_P(HardFaults, ArmedButFaultFreeIsInvisible)
{
    // The whole hard-fault apparatus (injector, table, purge hooks)
    // armed with zero faults must be bit-invisible: identical stats
    // to a network with no fault machinery at all.
    const RouterArch arch = GetParam();
    FaultParams armed;
    armed.enabled = true;
    const NetworkStats with =
        runChecked(arch, SchedulingMode::AlwaysTick, armed);
    const NetworkStats without =
        runChecked(arch, SchedulingMode::AlwaysTick, FaultParams{});
    EXPECT_TRUE(identicalStats(with, without))
        << archName(arch)
        << ": idle fault machinery perturbed the simulation";
}

INSTANTIATE_TEST_SUITE_P(
    Arches, HardFaults,
    ::testing::Values(RouterArch::NonSpeculative, RouterArch::SpecFast,
                      RouterArch::SpecAccurate, RouterArch::Nox),
    [](const ::testing::TestParamInfo<RouterArch> &info) {
        std::string n = archName(info.param);
        std::erase_if(n, [](char c) {
            return !std::isalnum(static_cast<unsigned char>(c));
        });
        return n;
    });

TEST(HardFaultsVc, MidRunKillWithVirtualChannels)
{
    // The VC router keeps per-VC state the purge must cover too.
    const FaultParams f = hardFaults(2, 1, kRun / 2);
    const NetworkStats s = runChecked(
        RouterArch::NonSpeculative, SchedulingMode::AlwaysTick, f,
        /*vc_count=*/2);
    EXPECT_GE(s.faults.tableRebuilds, 1u);
    EXPECT_GT(s.packetsEjected, 0u);
}

TEST(HardFaultsTargeted, UnreachableInjectionRefusedAndCounted)
{
    // Kill one router via the one-shot API, then aim a packet at its
    // terminal: the injection must be refused at the boundary (no
    // leaked packet id, no stranded flits) and counted.
    FaultParams f;
    f.enabled = true;
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick, f,
                            /*load=*/0.0);
    ASSERT_NE(net->faultInjector(), nullptr);
    net->faultInjector()->scheduleOneShot(FaultKind::RouterDead,
                                          /*cycle=*/1, /*router=*/27,
                                          /*port=*/-1);
    net->run(2);
    ASSERT_TRUE(net->faultMap().routerDead(27));

    const NetworkStats before = net->stats();
    EXPECT_EQ(net->injectPacket(0, 27, 1, net->now(),
                                TrafficClass::Synthetic),
              kInvalidPacket);
    EXPECT_EQ(net->stats().faults.unreachableRejected,
              before.faults.unreachableRejected + 1);
    EXPECT_EQ(net->stats().packetsInjected, before.packetsInjected);
    EXPECT_FALSE(net->routingTable().reachable(0, 27));

    // A live pair still routes normally on the rebuilt table.
    EXPECT_NE(net->injectPacket(0, 63, 1, net->now(),
                                TrafficClass::Synthetic),
              kInvalidPacket);
    EXPECT_TRUE(net->drain(kDrainLimit))
        << net->lastDrainReport().summary();
    EXPECT_EQ(net->stats().packetsEjected,
              net->stats().packetsInjected);
}

TEST(HardFaultsTargeted, MidRunLinkKillWritesOffInFlightTraffic)
{
    // A targeted single-link kill during saturation-ish load: the
    // drain report must classify every written-off packet as
    // undeliverable (accounted), never as stalled.
    FaultParams f;
    f.enabled = true;
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick, f,
                            /*load=*/0.2, /*packet_flits=*/5);
    net->faultInjector()->scheduleOneShot(FaultKind::LinkDead,
                                          /*cycle=*/600,
                                          /*router=*/27, kPortEast);
    net->run(kRun);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(kDrainLimit))
        << net->lastDrainReport().summary();

    const NetworkStats &s = net->stats();
    EXPECT_TRUE(net->faultMap().linkDead(27, kPortEast));
    EXPECT_TRUE(net->faultMap().linkDead(28, kPortWest));
    EXPECT_EQ(s.faults.hardLinkFaults, 1u);
    EXPECT_EQ(s.packetsEjected + s.faults.packetsLostHard,
              s.packetsInjected);
    // The mesh stays connected around one dead link: nothing becomes
    // unreachable, so every loss is an in-flight casualty.
    EXPECT_EQ(s.faults.unreachableRejected, 0u);
    const DrainReport &rep = net->lastDrainReport();
    EXPECT_EQ(rep.stalledPackets, 0u);
    EXPECT_EQ(rep.undeliverablePackets, s.faults.packetsLostHard);
}

TEST(HardFaultsTargeted, SoftAndHardFaultsCompose)
{
    // Transient upsets (with CRC/retry protection) and a mid-run hard
    // kill in the same run: recovery machinery and write-off
    // machinery must not double-count or lose anything.
    FaultParams f = hardFaults(2, 0, 500);
    f.bitflipRate = 0.001;
    f.dropRate = 0.0005;
    const NetworkStats s = runChecked(
        RouterArch::Nox, SchedulingMode::AlwaysTick, f);
    EXPECT_GT(s.faults.faultsInjected, 0u);
    EXPECT_EQ(s.faults.hardLinkFaults, 2u);
    EXPECT_GE(s.faults.tableRebuilds, 1u);
}

/** Nodes 0 and 1 of a 3x1 mesh each offer one single-flit packet per
 *  cycle to node 2, alternating request and reply class (VC 0 and 1
 *  on a two-VC router). Router 1's east output is the bottleneck, so
 *  its west input stays backed up (on a two-VC router, the reply lane
 *  fills while the request lane keeps flowing). */
class ConvergeSource : public TrafficSource
{
  public:
    Cycle
    tick(Cycle now, PacketInjector &inj) override
    {
        const TrafficClass cls =
            now % 2 ? TrafficClass::Reply : TrafficClass::Request;
        inj.injectPacket(0, 2, 1, now, cls);
        inj.injectPacket(1, 2, 1, now, cls);
        return now + 1;
    }
};

/** Flits buffered in router 1's west input, per lane. */
int
westOccupancy(const Network &net, int vcs, int vc)
{
    const Router &r = net.router(1);
    if (vcs == 1)
        return static_cast<int>(r.inputFifo(kPortWest).size());
    return static_cast<int>(
        static_cast<const VcRouter &>(r).vcFifo(kPortWest, vc).size());
}

/** Router 0's east-output credits, per lane. */
int
eastCredits(const Network &net, int vcs, int vc)
{
    const Router &r = net.router(0);
    if (vcs == 1)
        return r.outputCredits(kPortEast);
    return static_cast<const VcRouter &>(r).vcCredits(kPortEast, vc);
}

void
healWithBufferedFlits(RouterArch arch, int vcs)
{
    // Kill the 0<->1 link while router 1's west input holds flits
    // (the kill leaves them in place: they are past the link and can
    // still reach node 2), heal it two cycles later, and check that
    // router 0 gets back only the free slots: after every later cycle,
    // its credits plus router 1's occupancy equal the buffer depth.
    NetworkParams params;
    params.width = 3;
    params.height = 1;
    params.router.vcCount = vcs;
    params.faults.enabled = true;
    auto net = makeNetwork(params, arch);
    net->addSource(std::make_unique<ConvergeSource>());
    net->faultInjector()->scheduleOneShot(FaultKind::LinkDead, 100, 0,
                                          kPortEast);
    net->faultInjector()->scheduleOneShot(FaultKind::LinkHeal, 102, 0,
                                          kPortEast);
    net->run(102); // the heal applies at the start of the next step
    ASSERT_TRUE(net->faultMap().linkDead(0, kPortEast));
    int buffered = 0;
    for (int v = 0; v < vcs; ++v)
        buffered += westOccupancy(*net, vcs, v);
    ASSERT_GT(buffered, 0) << "router 1 drained before the heal";

    const int depth = params.router.bufferDepth;
    for (int c = 0; c < 50; ++c) {
        net->step();
        for (int v = 0; v < vcs; ++v) {
            ASSERT_EQ(eastCredits(*net, vcs, v) +
                          westOccupancy(*net, vcs, v),
                      depth)
                << "lane " << v << ", cycle " << net->now();
        }
    }
    EXPECT_FALSE(net->faultMap().linkDead(0, kPortEast));
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(kDrainLimit))
        << net->lastDrainReport().summary();
    const NetworkStats &s = net->stats();
    EXPECT_EQ(s.packetsEjected + s.faults.packetsLostHard,
              s.packetsInjected);
}

TEST(HardFaultsTargeted, LinkHealCreditsCountBufferedFlits)
{
    healWithBufferedFlits(RouterArch::SpecFast, 1);
}

TEST(HardFaultsVc, LinkHealCreditsCountBufferedFlitsPerLane)
{
    healWithBufferedFlits(RouterArch::NonSpeculative, 2);
}

} // namespace
} // namespace nox
