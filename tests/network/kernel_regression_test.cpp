/**
 * @file
 * Regression tests for two cycle-loop bugs:
 *
 *  - drain() used to keep ticking enabled traffic sources, so an
 *    open-loop run could never reach zero packets in flight; it must
 *    suspend sources for the duration and restore the prior flag.
 *  - stats().maxSourceQueueFlits was only sampled inside
 *    Network::injectPacket(), missing queue growth from packets
 *    enqueued directly on a NIC; the cycle loop must sample it too.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "noc/flit.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

std::unique_ptr<Network>
loadedNetwork(double load, SchedulingMode mode)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.schedulingMode = mode;
    auto net = makeNetwork(params, RouterArch::Nox);

    static const Mesh mesh(4, 4);
    static const DestinationPattern uniform(PatternKind::UniformRandom,
                                            mesh);
    Rng seeder(42);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, uniform, load, 1, seeder.next()));
    }
    return net;
}

TEST(DrainRegression, DrainsUnderLoadWithSourcesEnabled)
{
    // High enough load that in-flight packets never momentarily hit
    // zero if sources keep injecting during the drain.
    auto net = loadedNetwork(0.4, SchedulingMode::AlwaysTick);
    net->run(300);
    ASSERT_GT(net->packetsInFlight(), 0u);

    EXPECT_TRUE(net->drain(5000));
    EXPECT_EQ(net->packetsInFlight(), 0u);
}

TEST(DrainRegression, RestoresEnabledFlagAfterDrain)
{
    auto net = loadedNetwork(0.4, SchedulingMode::AlwaysTick);
    net->run(300);
    ASSERT_TRUE(net->drain(5000));

    // Sources were enabled going in, so they resume afterwards.
    const std::uint64_t injected = net->stats().packetsInjected;
    net->run(300);
    EXPECT_GT(net->stats().packetsInjected, injected);
}

TEST(DrainRegression, RestoresDisabledFlagAfterDrain)
{
    auto net = loadedNetwork(0.4, SchedulingMode::AlwaysTick);
    net->run(300);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(5000));

    // Sources were already off; drain must not switch them back on.
    const std::uint64_t injected = net->stats().packetsInjected;
    net->run(300);
    EXPECT_EQ(net->stats().packetsInjected, injected);
}

/** A @p num_flits packet built the way Network::injectPacket does. */
std::vector<FlitDesc>
makePacket(PacketId id, NodeId src, NodeId dst, int num_flits)
{
    std::vector<FlitDesc> flits;
    for (int s = 0; s < num_flits; ++s) {
        FlitDesc d;
        d.uid = flitUid(id, static_cast<std::uint32_t>(s));
        d.packet = id;
        d.seq = static_cast<std::uint32_t>(s);
        d.packetSize = static_cast<std::uint32_t>(num_flits);
        d.src = src;
        d.dest = dst;
        d.payload = expectedPayload(id, static_cast<std::uint32_t>(s));
        flits.push_back(d);
    }
    return flits;
}

class QueuePeakSampling
    : public ::testing::TestWithParam<SchedulingMode>
{
};

TEST_P(QueuePeakSampling, CycleLoopCapturesStalledQueue)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.schedulingMode = GetParam();
    auto net = makeNetwork(params, RouterArch::Nox);

    // Enqueue a burst directly on the NIC, bypassing injectPacket()
    // and therefore its sampling; only the cycle loop can see this
    // backlog. The queue drains one flit per cycle at best.
    constexpr int kBurst = 12;
    for (int i = 0; i < kBurst; ++i) {
        net->nic(0).enqueuePacket(
            makePacket(static_cast<PacketId>(1000 + i), 0, 5, 1));
    }
    ASSERT_EQ(net->stats().maxSourceQueueFlits, 0u)
        << "direct enqueue must not be sampled outside the cycle loop";

    // First cycle: one flit injects, the loop samples the remainder.
    net->step();
    EXPECT_EQ(net->stats().maxSourceQueueFlits, kBurst - 1);

    // Later cycles only ever see a shorter queue; the peak sticks.
    net->run(30);
    EXPECT_EQ(net->stats().maxSourceQueueFlits, kBurst - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, QueuePeakSampling,
    ::testing::Values(SchedulingMode::AlwaysTick,
                      SchedulingMode::ActivityDriven),
    [](const ::testing::TestParamInfo<SchedulingMode> &info) {
        return std::string(schedulingModeName(info.param));
    });

} // namespace
} // namespace nox
