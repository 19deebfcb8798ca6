/** @file End-to-end network tests: delivery, latency accounting,
 *  multi-flit packets, measurement windows. */

#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "routers/factory.hpp"

namespace nox {
namespace {

NetworkParams
smallParams()
{
    NetworkParams p;
    p.width = 4;
    p.height = 4;
    return p;
}

class AllArchs : public ::testing::TestWithParam<RouterArch>
{
};

TEST_P(AllArchs, SinglePacketDelivered)
{
    auto net = makeNetwork(smallParams(), GetParam());
    net->injectPacket(0, 15, 1, net->now(), TrafficClass::Synthetic);
    EXPECT_TRUE(net->drain(200));
    EXPECT_EQ(net->stats().packetsEjected, 1u);
    EXPECT_EQ(net->stats().flitsEjected, 1u);

    // 0 -> 15 in a 4x4 mesh is 6 hops; latency must cover at least
    // injection + per-hop traversal + ejection.
    EXPECT_GE(net->stats().latency.mean(), 6.0);
    EXPECT_LE(net->stats().latency.mean(), 20.0);
}

TEST_P(AllArchs, ZeroLoadCycleLatencyIdenticalAcrossRuns)
{
    // Deterministic: same packet twice in fresh networks.
    double lat[2];
    for (int i = 0; i < 2; ++i) {
        auto net = makeNetwork(smallParams(), GetParam());
        net->injectPacket(5, 10, 1, net->now(),
                          TrafficClass::Synthetic);
        ASSERT_TRUE(net->drain(200));
        lat[i] = net->stats().latency.mean();
    }
    EXPECT_DOUBLE_EQ(lat[0], lat[1]);
}

TEST_P(AllArchs, MultiFlitPacketDelivered)
{
    auto net = makeNetwork(smallParams(), GetParam());
    net->injectPacket(3, 12, 9, net->now(), TrafficClass::Reply);
    EXPECT_TRUE(net->drain(500));
    EXPECT_EQ(net->stats().packetsEjected, 1u);
    EXPECT_EQ(net->stats().flitsEjected, 9u);
}

TEST_P(AllArchs, ManyPacketsFromOneSourceArriveInOrder)
{
    auto net = makeNetwork(smallParams(), GetParam());
    for (int i = 0; i < 10; ++i)
        net->injectPacket(0, 15, 1, net->now(),
                          TrafficClass::Synthetic);
    EXPECT_TRUE(net->drain(1000));
    EXPECT_EQ(net->stats().packetsEjected, 10u);
}

TEST_P(AllArchs, CrossTrafficAllDelivered)
{
    // Four flows crossing the mesh centre in both dimensions.
    auto net = makeNetwork(smallParams(), GetParam());
    const Mesh &m = net->mesh();
    for (int i = 0; i < 5; ++i) {
        net->injectPacket(m.nodeAt({0, 1}), m.nodeAt({3, 1}), 1,
                          net->now(), TrafficClass::Synthetic);
        net->injectPacket(m.nodeAt({3, 2}), m.nodeAt({0, 2}), 1,
                          net->now(), TrafficClass::Synthetic);
        net->injectPacket(m.nodeAt({1, 0}), m.nodeAt({1, 3}), 1,
                          net->now(), TrafficClass::Synthetic);
        net->injectPacket(m.nodeAt({2, 3}), m.nodeAt({2, 0}), 9,
                          net->now(), TrafficClass::Reply);
        net->run(2);
    }
    EXPECT_TRUE(net->drain(2000));
    EXPECT_EQ(net->stats().packetsEjected, 20u);
    EXPECT_EQ(net->stats().flitsEjected, 5u * (3 + 9));
}

TEST_P(AllArchs, ZeroLoadLatencyEqualsHopsPlusConstant)
{
    // At zero load every evaluated design is a single-cycle-per-hop
    // router: cycle latency must grow by exactly one per extra hop.
    const Mesh mesh(4, 4);
    std::vector<double> lats;
    for (int hops = 1; hops <= 3; ++hops) {
        auto net = makeNetwork(smallParams(), GetParam());
        net->injectPacket(0, hops /* (hops,0) */, 1, net->now(),
                          TrafficClass::Synthetic);
        ASSERT_TRUE(net->drain(100));
        lats.push_back(net->stats().latency.mean());
    }
    EXPECT_DOUBLE_EQ(lats[1] - lats[0], 1.0);
    EXPECT_DOUBLE_EQ(lats[2] - lats[1], 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    EveryArchitecture, AllArchs, ::testing::ValuesIn(kAllArchs),
    [](const ::testing::TestParamInfo<RouterArch> &info) {
        switch (info.param) {
          case RouterArch::NonSpeculative: return "NonSpec";
          case RouterArch::SpecFast: return "SpecFast";
          case RouterArch::SpecAccurate: return "SpecAccurate";
          case RouterArch::Nox: return "NoX";
        }
        return "Unknown";
    });

TEST(Network, MeasurementWindowFiltersLatency)
{
    auto net = makeNetwork(smallParams(), RouterArch::Nox);
    net->setMeasurementWindow(100, 200);

    net->injectPacket(0, 5, 1, net->now(), TrafficClass::Synthetic);
    net->run(100); // packet created at cycle 0: outside window
    EXPECT_EQ(net->stats().latency.count(), 0u);

    net->injectPacket(0, 5, 1, net->now(), TrafficClass::Synthetic);
    EXPECT_TRUE(net->drain(200));
    EXPECT_EQ(net->stats().latency.count(), 1u);
    EXPECT_EQ(net->stats().packetsMeasured, 1u);
    EXPECT_EQ(net->stats().packetsMeasuredDone, 1u);
}

TEST(Network, PerClassLatencyTracked)
{
    auto net = makeNetwork(smallParams(), RouterArch::Nox);
    net->injectPacket(0, 5, 1, net->now(), TrafficClass::Request);
    net->injectPacket(5, 0, 9, net->now(), TrafficClass::Reply);
    EXPECT_TRUE(net->drain(500));
    EXPECT_EQ(net->stats()
                  .latencyByClass[static_cast<int>(TrafficClass::Request)]
                  .count(),
              1u);
    EXPECT_EQ(net->stats()
                  .latencyByClass[static_cast<int>(TrafficClass::Reply)]
                  .count(),
              1u);
}

TEST(Network, EnergyEventsAccumulate)
{
    auto net = makeNetwork(smallParams(), RouterArch::Nox);
    net->injectPacket(0, 3, 1, net->now(), TrafficClass::Synthetic);
    ASSERT_TRUE(net->drain(200));
    const EnergyEvents e = net->totalEnergyEvents();
    // 0 -> 3 along the top row traverses routers 0,1,2,3: three
    // inter-router link crossings plus the inject and eject hops.
    EXPECT_EQ(e.linkFlits, 3u);
    EXPECT_EQ(e.localLinkFlits, 2u);
    EXPECT_GE(e.bufferWrites, 3u);
    EXPECT_EQ(e.linkWastedCycles, 0u);
}

TEST(Network, InFlightAccounting)
{
    auto net = makeNetwork(smallParams(), RouterArch::NonSpeculative);
    EXPECT_EQ(net->packetsInFlight(), 0u);
    net->injectPacket(0, 15, 1, net->now(), TrafficClass::Synthetic);
    EXPECT_EQ(net->packetsInFlight(), 1u);
    EXPECT_TRUE(net->drain(200));
    EXPECT_EQ(net->packetsInFlight(), 0u);
}

TEST(NetworkDeathTest, SelfAddressedPacketRejected)
{
    auto net = makeNetwork(smallParams(), RouterArch::Nox);
    EXPECT_DEATH(net->injectPacket(3, 3, 1, 0,
                                   TrafficClass::Synthetic),
                 "self-addressed");
}

TEST(NetworkDeathTest, PerturbRouterOutOfRangeRejected)
{
    // smallParams() is a 4x4 mesh: routers 0..15.
    for (const std::int64_t bad : {std::int64_t{16}, std::int64_t{-1}}) {
        NetworkParams params = smallParams();
        params.debugPerturbCycle = 10;
        params.debugPerturbRouter = bad;
        EXPECT_DEATH(makeNetwork(params, RouterArch::Nox),
                     "perturb_router=" + std::to_string(bad) +
                         " is out of range \\(valid: 0\\.\\.15\\)");
    }
}

} // namespace
} // namespace nox
