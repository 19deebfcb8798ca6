/**
 * @file
 * Energy-event accounting invariants across architectures:
 *
 *   - link flit counts equal the sum of per-packet hop counts
 *     (conservation between routing and energy accounting);
 *   - buffer writes equal flit arrivals; reads never exceed writes;
 *   - only speculative routers and NoX multi-flit aborts produce
 *     wasted link drives; NoX single-flit traffic never wastes;
 *   - the non-speculative router never drives invalid values;
 *   - merge() and diff() cover every counter.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"

namespace nox {
namespace {

std::unique_ptr<Network>
loadedNetwork(RouterArch arch, double rate, int flits,
              Cycle cycles)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    auto net = makeNetwork(params, arch);
    // Static mesh: the pattern must not dangle into a dead network.
    static const Mesh mesh(4, 4);
    static const DestinationPattern pattern(
        PatternKind::UniformRandom, mesh);
    Rng seeder(3);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, rate, flits, seeder.next()));
    }
    net->run(cycles);
    net->setSourcesEnabled(false);
    EXPECT_TRUE(net->drain(60000));
    return net;
}

/** Sums DOR hop counts (inter-router links) of delivered packets. */
class HopCounter : public SinkListener
{
  public:
    HopCounter(SinkListener *chain, const Mesh &mesh)
        : chain_(chain), mesh_(mesh)
    {
    }

    void
    onFlitDelivered(NodeId node, const FlitDesc &flit,
                    Cycle now) override
    {
        hopFlits += static_cast<std::uint64_t>(
            mesh_.hopDistance(flit.src, flit.dest));
        chain_->onFlitDelivered(node, flit, now);
    }

    void
    onPacketCompleted(NodeId node, const FlitDesc &last,
                      Cycle head_inject, Cycle now) override
    {
        chain_->onPacketCompleted(node, last, head_inject, now);
    }

    std::uint64_t hopFlits = 0;

  private:
    SinkListener *chain_;
    const Mesh &mesh_;
};

class EnergyAccounting : public ::testing::TestWithParam<RouterArch>
{
};

TEST_P(EnergyAccounting, LinkFlitsMatchHopCounts)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    auto net = makeNetwork(params, GetParam());
    HopCounter counter(net.get(), net->mesh());
    for (NodeId n = 0; n < net->numNodes(); ++n)
        net->nic(n).setListener(&counter);

    DestinationPattern pattern(PatternKind::UniformRandom,
                               net->mesh());
    Rng seeder(5);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, 0.05, 1, seeder.next()));
    }
    net->run(3000);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(60000));

    const EnergyEvents e = net->totalEnergyEvents();
    // Every productive inter-router transfer is one flit over one
    // hop; a flit's hop count is its DOR distance. NoX encoded
    // transfers carry several packets in one link flit, so linkFlits
    // may be LESS than the hop sum, never more.
    if (GetParam() == RouterArch::Nox) {
        EXPECT_LE(e.linkFlits, counter.hopFlits);
        EXPECT_GE(e.linkFlits, counter.hopFlits / 2);
    } else {
        EXPECT_EQ(e.linkFlits, counter.hopFlits);
    }
    // Inject + eject local hops: one each per flit (NoX ejection-port
    // collisions compress several packets into one link flit).
    if (GetParam() == RouterArch::Nox) {
        EXPECT_LE(e.localLinkFlits, 2 * net->stats().flitsEjected);
    } else {
        EXPECT_EQ(e.localLinkFlits, 2 * net->stats().flitsEjected);
    }
}

TEST_P(EnergyAccounting, BufferWritesMatchArrivals)
{
    auto net = loadedNetwork(GetParam(), 0.08, 1, 4000);
    const EnergyEvents e = net->totalEnergyEvents();
    // Every router-buffer write is a link arrival (inter-router or
    // injection); sink writes add the ejection leg. Every write is
    // eventually read exactly once (pop or decode-latch).
    EXPECT_GT(e.bufferWrites, 0u);
    EXPECT_EQ(e.bufferReads, e.bufferWrites);
}

TEST_P(EnergyAccounting, OnlySpeculationWastes)
{
    auto net = loadedNetwork(GetParam(), 0.10, 1, 4000);
    const EnergyEvents e = net->totalEnergyEvents();
    switch (GetParam()) {
      case RouterArch::NonSpeculative:
        EXPECT_EQ(e.linkWastedCycles + e.localLinkWasted, 0u);
        EXPECT_EQ(e.misspecCycles, 0u);
        break;
      case RouterArch::Nox:
        // Single-flit traffic cannot abort (§2.7): zero waste.
        EXPECT_EQ(e.linkWastedCycles + e.localLinkWasted, 0u);
        EXPECT_EQ(e.abortCycles, 0u);
        break;
      case RouterArch::SpecFast:
      case RouterArch::SpecAccurate:
        EXPECT_GT(e.misspecCycles, 0u);
        EXPECT_EQ(e.linkWastedCycles + e.localLinkWasted,
                  e.misspecCycles);
        break;
    }
}

TEST_P(EnergyAccounting, MultiFlitAbortsOnlyOnNox)
{
    auto net = loadedNetwork(GetParam(), 0.12, 3, 5000);
    const EnergyEvents e = net->totalEnergyEvents();
    if (GetParam() == RouterArch::Nox) {
        EXPECT_GT(e.abortCycles, 0u);
        EXPECT_EQ(e.linkWastedCycles + e.localLinkWasted,
                  e.abortCycles);
    } else {
        EXPECT_EQ(e.abortCycles, 0u);
    }
}

TEST_P(EnergyAccounting, DecodeActivityOnlyOnNox)
{
    auto net = loadedNetwork(GetParam(), 0.10, 1, 4000);
    const EnergyEvents e = net->totalEnergyEvents();
    if (GetParam() == RouterArch::Nox) {
        EXPECT_GT(e.decodeOps + e.decodeLatches, 0u);
        // Chain algebra: each encoded transfer is eventually latched
        // once downstream, and each latch begins a chain that decodes
        // at least one packet by XOR.
        EXPECT_GE(e.decodeOps, e.decodeLatches);
    } else {
        EXPECT_EQ(e.decodeOps, 0u);
        EXPECT_EQ(e.decodeLatches, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryArchitecture, EnergyAccounting,
    ::testing::ValuesIn(kAllArchs),
    [](const ::testing::TestParamInfo<RouterArch> &info) {
        switch (info.param) {
          case RouterArch::NonSpeculative: return "NonSpec";
          case RouterArch::SpecFast: return "SpecFast";
          case RouterArch::SpecAccurate: return "SpecAccurate";
          case RouterArch::Nox: return "NoX";
        }
        return "Unknown";
    });

/** Counter i (in declaration order) set by name to (i + 1) * scale. */
EnergyEvents
numbered(std::uint64_t scale)
{
    EnergyEvents e;
    e.bufferWrites = 1 * scale;
    e.bufferReads = 2 * scale;
    e.xbarInputDrives = 3 * scale;
    e.xbarOutputCycles = 4 * scale;
    e.linkFlits = 5 * scale;
    e.linkWastedCycles = 6 * scale;
    e.localLinkFlits = 7 * scale;
    e.localLinkWasted = 8 * scale;
    e.arbDecisions = 9 * scale;
    e.allocEvals = 10 * scale;
    e.decodeOps = 11 * scale;
    e.decodeLatches = 12 * scale;
    e.maskUpdates = 13 * scale;
    e.abortCycles = 14 * scale;
    e.misspecCycles = 15 * scale;
    e.cycles = 16 * scale;
    return e;
}

/** Every counter by name, spelled out apart from the field list. */
std::vector<std::pair<std::string, std::uint64_t>>
byName(const EnergyEvents &e)
{
    return {{"bufferWrites", e.bufferWrites},
            {"bufferReads", e.bufferReads},
            {"xbarInputDrives", e.xbarInputDrives},
            {"xbarOutputCycles", e.xbarOutputCycles},
            {"linkFlits", e.linkFlits},
            {"linkWastedCycles", e.linkWastedCycles},
            {"localLinkFlits", e.localLinkFlits},
            {"localLinkWasted", e.localLinkWasted},
            {"arbDecisions", e.arbDecisions},
            {"allocEvals", e.allocEvals},
            {"decodeOps", e.decodeOps},
            {"decodeLatches", e.decodeLatches},
            {"maskUpdates", e.maskUpdates},
            {"abortCycles", e.abortCycles},
            {"misspecCycles", e.misspecCycles},
            {"cycles", e.cycles}};
}

TEST(EnergyEventsCounters, MergeAndDiffCoverEveryCounter)
{
    // Distinct values per counter: a counter merged or diffed into
    // its neighbour, or left out, shows up by name.
    EnergyEvents sum = numbered(1000);
    sum.merge(numbered(10));
    EXPECT_EQ(byName(sum), byName(numbered(1010)));
    EXPECT_EQ(byName(diff(numbered(1000), numbered(10))),
              byName(numbered(990)));
}

} // namespace
} // namespace nox
