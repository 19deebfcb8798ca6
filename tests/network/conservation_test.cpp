/**
 * @file
 * Property-based conservation tests, parameterized over router
 * architecture, injection rate and packet mix:
 *
 *   1. Every injected packet is ejected exactly once.
 *   2. Payloads survive intact (asserted inside the NIC sink, which
 *      checks every delivered flit against expectedPayload()).
 *   3. Per source-destination flow, packets arrive in injection order
 *      (deterministic DOR wormhole — and NoX coding must preserve it).
 *   4. Credit flow never overflows a FIFO (asserted in FlitFifo).
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"

namespace nox {
namespace {

/** Bernoulli uniform-random source used only by this test. */
class TestRandomSource : public TrafficSource
{
  public:
    TestRandomSource(NodeId self, int num_nodes, double rate,
                     double data_fraction, std::uint64_t seed)
        : self_(self), numNodes_(num_nodes), rate_(rate),
          dataFraction_(data_fraction), rng_(seed)
    {
    }

    Cycle
    tick(Cycle now, PacketInjector &inj) override
    {
        if (!rng_.nextBernoulli(rate_))
            return now + 1;
        NodeId dst = self_;
        while (dst == self_)
            dst = static_cast<NodeId>(
                rng_.nextBounded(static_cast<std::uint64_t>(numNodes_)));
        const int flits =
            rng_.nextBernoulli(dataFraction_) ? 9 : 1;
        inj.injectPacket(self_, dst, flits, now,
                         TrafficClass::Synthetic);
        return now + 1;
    }

  private:
    NodeId self_;
    int numNodes_;
    double rate_;
    double dataFraction_;
    Rng rng_;
};

/** Records completion order per flow while forwarding to the chain. */
class OrderRecorder : public SinkListener
{
  public:
    explicit OrderRecorder(SinkListener *chain) : chain_(chain) {}

    void
    onFlitDelivered(NodeId node, const FlitDesc &flit,
                    Cycle now) override
    {
        chain_->onFlitDelivered(node, flit, now);
    }

    void
    onPacketCompleted(NodeId node, const FlitDesc &last,
                      Cycle head_inject, Cycle now) override
    {
        const auto key = std::make_pair(last.src, last.dest);
        auto [it, fresh] = lastPacket_.try_emplace(key, last.packet);
        if (!fresh) {
            // Packet ids are allocated in injection order, globally
            // monotonic, so per-flow order equals id order.
            EXPECT_LT(it->second, last.packet)
                << "flow (" << last.src << "->" << last.dest
                << ") delivered out of order";
            it->second = last.packet;
        }
        chain_->onPacketCompleted(node, last, head_inject, now);
    }

  private:
    SinkListener *chain_;
    std::map<std::pair<NodeId, NodeId>, PacketId> lastPacket_;
};

struct ConservationCase
{
    RouterArch arch;
    double rate;          // packets/node/cycle
    double dataFraction;  // fraction of 9-flit packets
    bool faults = false;  // link faults + recovery enabled
    int vcCount = 1;
};

std::string
caseName(const ::testing::TestParamInfo<ConservationCase> &info)
{
    std::string n = archName(info.param.arch);
    for (auto &c : n)
        if (c == '-')
            c = '_';
    n += "_r" + std::to_string(static_cast<int>(
                    info.param.rate * 1000));
    n += "_d" + std::to_string(static_cast<int>(
                    info.param.dataFraction * 100));
    if (info.param.vcCount > 1)
        n += "_vc" + std::to_string(info.param.vcCount);
    if (info.param.faults)
        n += "_faults";
    return n;
}

class Conservation : public ::testing::TestWithParam<ConservationCase>
{
};

TEST_P(Conservation, AllPacketsDeliveredOnceInOrder)
{
    const ConservationCase &c = GetParam();

    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.router.vcCount = c.vcCount;
    if (c.faults) {
        // Link faults with full recovery: conservation, payload
        // integrity and ordering must all survive the injected bit
        // flips, drops and credit losses.
        params.faults.enabled = true;
        params.faults.bitflipRate = 0.002;
        params.faults.dropRate = 0.001;
        params.faults.creditLossRate = 0.001;
    }
    auto net = makeNetwork(params, c.arch);

    OrderRecorder recorder(net.get());
    for (NodeId n = 0; n < net->numNodes(); ++n)
        net->nic(n).setListener(&recorder);

    Rng seeder(0xC0FFEE ^ static_cast<std::uint64_t>(c.arch) ^
               static_cast<std::uint64_t>(c.rate * 1e6));
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<TestRandomSource>(
            n, net->numNodes(), c.rate, c.dataFraction,
            seeder.next()));
    }

    net->run(2000);
    const std::uint64_t injected = net->stats().packetsInjected;
    EXPECT_GT(injected, 100u);

    // Quiesce the sources, then drain everything still in flight.
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(50000)) << net->lastDrainReport().summary();
    EXPECT_EQ(net->stats().packetsEjected, net->stats().packetsInjected);
    EXPECT_EQ(net->stats().flitsEjected, net->stats().flitsInjected);
    if (c.faults) {
        EXPECT_GT(net->stats().faults.faultsInjected, 0u);
        EXPECT_EQ(net->stats().faults.corruptedEscapes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Conservation,
    ::testing::Values(
        ConservationCase{RouterArch::NonSpeculative, 0.02, 0.0},
        ConservationCase{RouterArch::NonSpeculative, 0.08, 0.0},
        ConservationCase{RouterArch::NonSpeculative, 0.05, 0.3},
        ConservationCase{RouterArch::SpecFast, 0.02, 0.0},
        ConservationCase{RouterArch::SpecFast, 0.06, 0.0},
        ConservationCase{RouterArch::SpecFast, 0.04, 0.3},
        ConservationCase{RouterArch::SpecAccurate, 0.02, 0.0},
        ConservationCase{RouterArch::SpecAccurate, 0.08, 0.0},
        ConservationCase{RouterArch::SpecAccurate, 0.05, 0.3},
        ConservationCase{RouterArch::Nox, 0.02, 0.0},
        ConservationCase{RouterArch::Nox, 0.08, 0.0},
        ConservationCase{RouterArch::Nox, 0.05, 0.3},
        ConservationCase{RouterArch::Nox, 0.12, 0.1},
        // Collision-spill path: enough single-flit collisions that
        // encoded chains spill their parts to heap vectors mid-run;
        // conservation and ordering must hold on spilled values too.
        ConservationCase{RouterArch::Nox, 0.20, 0.0},
        ConservationCase{RouterArch::NonSpeculative, 0.05, 0.3, true},
        ConservationCase{RouterArch::SpecFast, 0.04, 0.3, true},
        ConservationCase{RouterArch::SpecAccurate, 0.05, 0.3, true},
        ConservationCase{RouterArch::Nox, 0.05, 0.3, true},
        ConservationCase{RouterArch::NonSpeculative, 0.05, 0.3, true,
                         2}),
    caseName);

} // namespace
} // namespace nox
