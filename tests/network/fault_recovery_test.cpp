/**
 * @file
 * Link-fault recovery at network scope.
 *
 * Targeted one-shot faults verify each defence in isolation — CRC
 * detection + nack-driven retransmission for bit flips, retry-timeout
 * retransmission for drops, watchdog resync for lost credits — and
 * rate-driven sweeps verify the composition: with recovery on, every
 * packet is delivered exactly once with an intact payload under all
 * four router architectures (plus the VC configuration), with the
 * activity kernel in per-cycle digest lockstep against an always-tick
 * twin. With recovery off, the
 * fabric is raw: corruption must be *accounted* (decode mismatches and
 * corrupted-delivery escapes cover every upset) and stranded packets
 * must be *diagnosable* via the structured drain report.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "support/kernel_lockstep.hpp"

namespace nox {
namespace {

constexpr RouterArch kAllArchs[] = {
    RouterArch::NonSpeculative,
    RouterArch::SpecFast,
    RouterArch::SpecAccurate,
    RouterArch::Nox,
};

std::unique_ptr<Network>
buildFaultNet(RouterArch arch, const FaultParams &faults,
              int vc_count = 1,
              SchedulingMode mode = SchedulingMode::AlwaysTick)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.router.vcCount = vc_count;
    params.schedulingMode = mode;
    params.faults = faults;
    return makeNetwork(params, arch);
}

FaultParams
oneShotOnly()
{
    FaultParams p;
    p.enabled = true; // injector built, but no rate-driven faults
    return p;
}

/** Inject one cycle of random traffic from every node (both traffic
 *  classes, so VC configurations exercise both lanes), the same
 *  packets into each of @p nets. */
void
injectRandom(Rng &rng, double rate, std::initializer_list<Network *> nets)
{
    const int nodes = (*nets.begin())->numNodes();
    for (NodeId s = 0; s < nodes; ++s) {
        if (!rng.nextBernoulli(rate))
            continue;
        NodeId d = s;
        while (d == s) {
            d = static_cast<NodeId>(
                rng.nextBounded(static_cast<std::uint64_t>(nodes)));
        }
        const int flits = rng.nextBernoulli(0.3)
                              ? 3 + static_cast<int>(rng.nextBounded(4))
                              : 1;
        const TrafficClass cls = rng.nextBernoulli(0.5)
                                     ? TrafficClass::Reply
                                     : TrafficClass::Synthetic;
        for (Network *net : nets)
            net->injectPacket(s, d, flits, net->now(), cls);
    }
}

/** Drive random traffic into @p net for @p cycles. */
void
driveTraffic(Network &net, Cycle cycles, double rate,
             std::uint64_t seed)
{
    Rng rng(seed);
    for (Cycle t = 0; t < cycles; ++t) {
        injectRandom(rng, rate, {&net});
        net.step();
    }
}

class TargetedFault : public ::testing::TestWithParam<RouterArch>
{
};

TEST_P(TargetedFault, BitflipIsCaughtByCrcAndRetransmitted)
{
    auto net = buildFaultNet(GetParam(), oneShotOnly());
    // Packet 0 -> 3 crosses router 1's west input (DOR, X first).
    net->faultInjector()->scheduleOneShot(FaultKind::BitFlip, 0,
                                          /*router=*/1, kPortWest);
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    ASSERT_TRUE(net->drain(500));

    const FaultStats &f = net->stats().faults;
    EXPECT_EQ(net->faultInjector()->pendingOneShots(), 0u);
    EXPECT_EQ(f.bitflipsInjected, 1u);
    EXPECT_GE(f.faultsDetected, 1u); // CRC rejected the corrupt flit
    EXPECT_GE(f.retransmissions, 1u);
    EXPECT_EQ(f.corruptedEscapes, 0u);
    EXPECT_EQ(net->stats().packetsEjected, 1u);
    EXPECT_EQ(net->stats().flitsEjected, 1u);
}

TEST_P(TargetedFault, DropIsDetectedByRetryTimeout)
{
    auto net = buildFaultNet(GetParam(), oneShotOnly());
    net->faultInjector()->scheduleOneShot(FaultKind::Drop, 0,
                                          /*router=*/1, kPortWest);
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    ASSERT_TRUE(net->drain(500));

    const FaultStats &f = net->stats().faults;
    EXPECT_EQ(f.dropsInjected, 1u);
    EXPECT_GE(f.faultsDetected, 1u); // ack timeout declared the loss
    EXPECT_GE(f.retransmissions, 1u);
    EXPECT_EQ(net->stats().packetsEjected, 1u);
}

TEST_P(TargetedFault, LostCreditIsRestoredByWatchdog)
{
    auto net = buildFaultNet(GetParam(), oneShotOnly());
    // The credit returning to router 0's east output vanishes.
    net->faultInjector()->scheduleOneShot(FaultKind::CreditLoss, 0,
                                          /*router=*/0, kPortEast);
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    ASSERT_TRUE(net->drain(500));
    EXPECT_EQ(net->stats().faults.creditsLostInjected, 1u);

    // Run past the watchdog period: the audit restores the credit and
    // the mesh returns to a fully quiescent state.
    net->run(2 * net->faultInjector()->params().watchdogPeriod);
    const FaultStats &f = net->stats().faults;
    EXPECT_GE(f.creditResyncs, 1u);
    EXPECT_GE(f.faultsDetected, 1u);
    for (NodeId r = 0; r < net->numRouters(); ++r)
        EXPECT_TRUE(net->router(r).quiescent()) << "router " << r;

    // The restored link keeps working at full capacity.
    net->injectPacket(0, 3, 4, net->now(), TrafficClass::Synthetic);
    ASSERT_TRUE(net->drain(500));
    EXPECT_EQ(net->stats().packetsEjected, 2u);
}

INSTANTIATE_TEST_SUITE_P(Arches, TargetedFault,
                         ::testing::ValuesIn(kAllArchs),
                         [](const auto &info) {
                             std::string n = archName(info.param);
                             std::erase(n, '-');
                             return n;
                         });

struct RecoveryCase
{
    RouterArch arch;
    int vcCount;
};

class RecoverySweep : public ::testing::TestWithParam<RecoveryCase>
{
};

TEST_P(RecoverySweep, ExactlyOnceDeliveryUnderRateFaults)
{
    const RecoveryCase &c = GetParam();
    FaultParams faults;
    faults.enabled = true;
    faults.bitflipRate = 0.01;
    faults.dropRate = 0.005;
    faults.creditLossRate = 0.005;

    // The activity kernel runs in per-cycle digest lockstep with an
    // always-tick twin on identical traffic, so this sweep also
    // proves the link layer's quiescence contracts (pending retries,
    // lost credits) hold under fault load.
    auto twin = buildFaultNet(c.arch, faults, c.vcCount,
                              SchedulingMode::AlwaysTick);
    auto net = buildFaultNet(c.arch, faults, c.vcCount,
                             SchedulingMode::ActivityDriven);
    Rng rng(0xFA117 + c.vcCount);
    test::KernelLockstep lockstep(*twin, *net);
    const auto run = lockstep.run(1500, [&] {
        injectRandom(rng, 0.05, {twin.get(), net.get()});
    });
    ASSERT_FALSE(run) << *run;
    const auto drained = lockstep.drain(200000);
    ASSERT_FALSE(drained) << *drained;
    ASSERT_TRUE(net->lastDrainReport().drained)
        << net->lastDrainReport().summary();

    const NetworkStats &s = net->stats();
    EXPECT_GT(s.faults.faultsInjected, 50u);
    EXPECT_EQ(s.packetsEjected, s.packetsInjected);
    EXPECT_EQ(s.flitsEjected, s.flitsInjected);
    EXPECT_EQ(s.faults.corruptedEscapes, 0u);
    // Every bit flip and drop forces a retransmission.
    EXPECT_GE(s.faults.retransmissions,
              s.faults.bitflipsInjected + s.faults.dropsInjected);
    if (s.faults.creditsLostInjected > 0) {
        EXPECT_GE(s.faults.creditResyncs, 1u);
    }

    // A successful drain leaves a clean report behind.
    const DrainReport &report = net->lastDrainReport();
    EXPECT_TRUE(report.drained);
    EXPECT_EQ(report.packetsInFlight, 0u);
    EXPECT_TRUE(report.busyRouters.empty());
    EXPECT_TRUE(report.partialPackets.empty());
}

// Static storage: the struct's padding bytes are zero, so the
// parameter gtest prints into each test name is the same in every
// build (temporaries left stack garbage in it).
const RecoveryCase kRecoveryCases[] = {
    {RouterArch::NonSpeculative, 1}, {RouterArch::SpecFast, 1},
    {RouterArch::SpecAccurate, 1},   {RouterArch::Nox, 1},
    {RouterArch::NonSpeculative, 2},
};

INSTANTIATE_TEST_SUITE_P(
    ArchesAndVc, RecoverySweep, ::testing::ValuesIn(kRecoveryCases),
    [](const auto &info) {
        std::string n = archName(info.param.arch);
        std::erase(n, '-');
        if (info.param.vcCount > 1)
            n += "_vc" + std::to_string(info.param.vcCount);
        return n;
    });

class RawFabric : public ::testing::TestWithParam<RouterArch>
{
};

TEST_P(RawFabric, BitflipsAreFullyAccountedWithRecoveryOff)
{
    // Recovery off: corruption rides to completion. Delivery still
    // conserves packets (payload faults never strand a worm), and the
    // integrity layers must account for every upset — each flip shows
    // up as a decode mismatch and/or a corrupted-delivery escape,
    // never as a silent repair.
    FaultParams faults;
    faults.enabled = true;
    faults.bitflipRate = 0.01;
    faults.protect = false;

    auto net = buildFaultNet(GetParam(), faults);
    driveTraffic(*net, 1500, 0.05, 0xBAD5EED);
    ASSERT_TRUE(net->drain(50000));

    const NetworkStats &s = net->stats();
    ASSERT_GT(s.faults.bitflipsInjected, 20u);
    EXPECT_EQ(s.packetsEjected, s.packetsInjected);
    EXPECT_EQ(s.faults.retransmissions, 0u);
    EXPECT_EQ(s.faults.creditResyncs, 0u);
    EXPECT_GT(s.faults.corruptedEscapes, 0u);
    EXPECT_GE(s.faults.faultsDetected + s.faults.corruptedEscapes,
              s.faults.bitflipsInjected)
        << "an injected upset was silently repaired or lost";
    if (GetParam() == RouterArch::Nox) {
        // Corrupt wire values reaching the XOR decode chain are
        // flagged in-network, before the sink sees them.
        EXPECT_GT(s.faults.decodeMismatches, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Arches, RawFabric,
                         ::testing::ValuesIn(kAllArchs),
                         [](const auto &info) {
                             std::string n = archName(info.param);
                             std::erase(n, '-');
                             return n;
                         });

TEST(DrainReport, DiagnosesStrandedPacketWithRecoveryOff)
{
    FaultParams faults;
    faults.enabled = true;
    faults.protect = false;
    auto net = buildFaultNet(RouterArch::NonSpeculative, faults);

    // The head flit of 0 -> 3 vanishes on router 1's west input; with
    // no link protection the packet is stranded forever.
    net->faultInjector()->scheduleOneShot(FaultKind::Drop, 0,
                                          /*router=*/1, kPortWest);
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    EXPECT_FALSE(net->drain(2000));

    const DrainReport &report = net->lastDrainReport();
    EXPECT_FALSE(report.drained);
    EXPECT_EQ(report.packetsInFlight, 1u);
    EXPECT_FALSE(report.summary().empty());
    EXPECT_NE(report.summary().find("packet"), std::string::npos);
}

TEST(DrainReport, NamesPartiallyDeliveredPackets)
{
    // Probe run: a one-shot bit flip stamps the fault log with the
    // cycle the head flit crosses the destination router's west input;
    // flits follow head at one-cycle spacing on an idle mesh.
    Cycle head_arrival = 0;
    {
        FaultParams faults;
        faults.enabled = true;
        faults.protect = false;
        auto probe = buildFaultNet(RouterArch::NonSpeculative, faults);
        probe->faultInjector()->scheduleOneShot(FaultKind::BitFlip, 0,
                                                /*router=*/3,
                                                kPortWest);
        probe->injectPacket(0, 3, 3, probe->now(),
                            TrafficClass::Synthetic);
        ASSERT_TRUE(probe->drain(500));
        ASSERT_EQ(probe->faultInjector()->log().size(), 1u);
        head_arrival = probe->faultInjector()->log()[0].cycle;
    }

    // Real run: drop the tail (third) flit at the same link, so two of
    // three flits reach the destination NIC.
    FaultParams faults;
    faults.enabled = true;
    faults.protect = false;
    auto net = buildFaultNet(RouterArch::NonSpeculative, faults);
    net->faultInjector()->scheduleOneShot(FaultKind::Drop,
                                          head_arrival + 2,
                                          /*router=*/3, kPortWest);
    net->injectPacket(0, 3, 3, net->now(), TrafficClass::Synthetic);
    EXPECT_FALSE(net->drain(2000));

    const DrainReport &report = net->lastDrainReport();
    ASSERT_EQ(report.partialPackets.size(), 1u);
    EXPECT_EQ(report.partialPackets[0].node, 3);
    EXPECT_EQ(report.partialPackets[0].flitsArrived, 2u);
    EXPECT_NE(report.summary().find("partial"), std::string::npos);
}

TEST(FaultRecovery, RecoveryIsInvisibleToFaultFreeTraffic)
{
    // An enabled injector with zero rates must not perturb results:
    // the protected network produces bit-identical stats to one built
    // without any fault machinery.
    auto plain =
        buildFaultNet(RouterArch::Nox, FaultParams{}); // disabled
    auto armed = buildFaultNet(RouterArch::Nox, oneShotOnly());
    driveTraffic(*plain, 800, 0.06, 0x5EED);
    driveTraffic(*armed, 800, 0.06, 0x5EED);
    ASSERT_TRUE(plain->drain(50000));
    ASSERT_TRUE(armed->drain(50000));
    EXPECT_TRUE(identicalStats(plain->stats(), armed->stats()));
    EXPECT_EQ(armed->stats().faults.faultsInjected, 0u);
}

} // namespace
} // namespace nox
