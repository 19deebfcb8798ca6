/**
 * @file
 * DrainReport classification: the drain diagnosis must cleanly
 * separate packets deliberately written off by the hard-fault
 * machinery (undeliverablePackets — accounted losses that do not
 * block a successful drain) from packets genuinely stuck in flight
 * (stalledPackets — the count that decides `drained`).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

std::unique_ptr<Network>
buildLoadedNet(const FaultParams &faults = {})
{
    NetworkParams params;
    params.width = 8;
    params.height = 8;
    params.faults = faults;
    auto net = makeNetwork(params, RouterArch::Nox);

    static const Mesh mesh(8, 8);
    static const DestinationPattern pattern(
        PatternKind::UniformRandom, mesh, 0.2);
    Rng seeder(0xDBA1A);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, 0.08, 3, seeder.next()));
    }
    return net;
}

TEST(DrainReport, CleanDrainReportsNothingStuck)
{
    auto net = buildLoadedNet();
    net->run(300);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(5000));

    const DrainReport &r = net->lastDrainReport();
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(r.stalledPackets, 0u);
    EXPECT_EQ(r.undeliverablePackets, 0u);
    EXPECT_TRUE(r.busyRouters.empty());
    EXPECT_TRUE(r.busyNics.empty());
    EXPECT_TRUE(r.partialPackets.empty());
    // The one-paragraph rendering of a clean drain says so.
    EXPECT_NE(r.summary().find("drained"), std::string::npos);
}

TEST(DrainReport, HardFaultWriteOffsAreUndeliverableNotStalled)
{
    // Fail-stop kills under load write off in-flight and unreachable
    // packets. Those are accounted losses: drain still succeeds, and
    // the report classifies them as undeliverable, not stalled.
    FaultParams faults;
    faults.enabled = true;
    faults.hardLinkFaults = 3;
    faults.hardRouterFaults = 1;
    faults.hardFaultCycle = 150;
    faults.seed = 0xD15EA5E;

    auto net = buildLoadedNet(faults);
    net->run(300);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(5000)) << net->lastDrainReport().summary();

    const DrainReport &r = net->lastDrainReport();
    EXPECT_TRUE(r.drained);
    ASSERT_GT(net->stats().faults.packetsLostHard, 0u)
        << "kills never caught a packet: not a write-off test";
    EXPECT_EQ(r.undeliverablePackets,
              net->stats().faults.packetsLostHard);
    EXPECT_EQ(r.stalledPackets, 0u);
    EXPECT_TRUE(r.busyRouters.empty());
    EXPECT_TRUE(r.busyNics.empty());
    // Conservation: everything injected was delivered or written off.
    EXPECT_EQ(net->stats().packetsEjected +
                  net->stats().faults.packetsLostHard,
              net->stats().packetsInjected);
}

TEST(DrainReport, UnprotectedDropWedgesAsStalled)
{
    // With link protection off, a dropped tail flit simply vanishes:
    // the packet can never complete at the sink, so the network
    // wedges and the report must blame a stalled packet — with the
    // busy-component lists and partial-packet forensics populated,
    // and nothing misfiled under undeliverable.
    FaultParams faults;
    faults.enabled = true;
    faults.protect = false;

    // Probe run: a one-shot bit flip stamps the fault log with the
    // cycle the head flit crosses the destination router's west
    // input; flits follow at one-cycle spacing on an idle mesh.
    Cycle head_arrival = 0;
    {
        NetworkParams params;
        params.width = 4;
        params.height = 4;
        params.faults = faults;
        auto probe = makeNetwork(params, RouterArch::NonSpeculative);
        probe->faultInjector()->scheduleOneShot(FaultKind::BitFlip, 0,
                                                /*router=*/3,
                                                kPortWest);
        probe->injectPacket(0, 3, 3, probe->now(),
                            TrafficClass::Synthetic);
        ASSERT_TRUE(probe->drain(500));
        ASSERT_EQ(probe->faultInjector()->log().size(), 1u);
        head_arrival = probe->faultInjector()->log()[0].cycle;
    }

    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.faults = faults;
    auto net = makeNetwork(params, RouterArch::NonSpeculative);
    net->faultInjector()->scheduleOneShot(FaultKind::Drop,
                                          head_arrival + 2,
                                          /*router=*/3, kPortWest);
    net->injectPacket(0, 3, 3, net->now(), TrafficClass::Synthetic);
    EXPECT_FALSE(net->drain(2000))
        << "expected a wedge, but the network drained";

    const DrainReport &r = net->lastDrainReport();
    EXPECT_FALSE(r.drained);
    EXPECT_EQ(r.stalledPackets, 1u);
    EXPECT_EQ(r.undeliverablePackets, 0u)
        << "no hard faults ran, nothing was written off";
    EXPECT_FALSE(r.busyRouters.empty() && r.busyNics.empty())
        << "a wedged network must name at least one busy component";
    EXPECT_NE(r.summary().find("stalled"), std::string::npos)
        << "summary: " << r.summary();
}

} // namespace
} // namespace nox
