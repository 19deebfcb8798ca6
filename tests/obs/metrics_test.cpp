/**
 * @file
 * MetricsSampler tests: window arithmetic, the flit-conservation
 * contract against NetworkStats, JSONL export shape, and the
 * link-utilization heatmap grid.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "obs/metrics.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

MetricsParams
testParams(Cycle interval)
{
    MetricsParams p;
    p.enabled = true;
    p.interval = interval;
    p.jsonlPath = "";
    p.heatmap = false;
    return p;
}

TEST(MetricsSampler, WindowBoundaryArithmetic)
{
    MetricsSampler m(testParams(256), 4);
    EXPECT_FALSE(m.windowEnds(1));
    EXPECT_FALSE(m.windowEnds(255));
    EXPECT_TRUE(m.windowEnds(256));
    EXPECT_FALSE(m.windowEnds(257));
    EXPECT_TRUE(m.windowEnds(512));
}

TEST(MetricsSampler, WindowsAccumulateAndConserveCounts)
{
    MetricsSampler m(testParams(100), 2);
    for (int i = 0; i < 7; ++i)
        m.onFlitEjected(i % 2 == 0); // 4 measured, 3 not
    m.recordWindow(100, {RouterWindowSample{}, RouterWindowSample{}},
                   2, 1);
    m.onFlitEjected(true);
    m.recordWindow(200, {RouterWindowSample{}, RouterWindowSample{}},
                   0, 0);

    ASSERT_EQ(m.numWindows(), 2u);
    EXPECT_EQ(m.window(0).start, 0u);
    EXPECT_EQ(m.window(0).end, 100u);
    EXPECT_EQ(m.window(0).flitsEjected, 7u);
    EXPECT_EQ(m.window(0).flitsEjectedMeasured, 4u);
    EXPECT_EQ(m.window(0).activeRouters, 2);
    EXPECT_EQ(m.window(1).start, 100u);
    EXPECT_EQ(m.window(1).flitsEjected, 1u);
    EXPECT_EQ(m.totalEjected(), 8u);
    EXPECT_EQ(m.totalEjectedMeasured(), 5u);

    // Counts still ejected into a not-yet-closed window are included
    // in the totals, so conservation holds mid-window too.
    m.onFlitEjected(false);
    EXPECT_EQ(m.totalEjected(), 9u);
    EXPECT_TRUE(m.openWindowDirty(250));
    EXPECT_FALSE(m.openWindowDirty(200));
}

/** Seeded 8x8 run with metrics sampling on. */
std::unique_ptr<Network>
buildSampledNetwork(const MetricsParams &metrics)
{
    NetworkParams params;
    params.width = 8;
    params.height = 8;
    params.obs.metrics = metrics;
    auto net = makeNetwork(params, RouterArch::Nox);

    static const Mesh mesh(8, 8);
    static const DestinationPattern pat(PatternKind::UniformRandom,
                                        mesh, 0.2);
    Rng seeder(0xF1683);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pat, 0.1, 2, seeder.next()));
    }
    net->setMeasurementWindow(300, 1200);
    return net;
}

TEST(MetricsConservation, WindowSumsMatchNetworkStats)
{
    // A measurement interval that does NOT divide the run length, so
    // the final window is partial and only flushed by
    // finishObservability().
    auto net = buildSampledNetwork(testParams(256));
    net->run(1200);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(20000));
    net->finishObservability();

    ASSERT_NE(net->metrics(), nullptr);
    const MetricsSampler &m = *net->metrics();
    EXPECT_GT(m.numWindows(), 3u);
    EXPECT_GT(net->stats().flitsEjected, 0u);
    // Conservation: every ejected flit landed in exactly one window.
    EXPECT_EQ(m.totalEjected(), net->stats().flitsEjected);
    EXPECT_EQ(m.totalEjectedMeasured(),
              net->stats().flitsEjectedInWindow);
    // Windows tile the run without gaps or overlap.
    for (std::size_t i = 0; i < m.numWindows(); ++i) {
        const MetricsWindow &w = m.window(i);
        EXPECT_LT(w.start, w.end);
        if (i > 0) {
            EXPECT_EQ(w.start, m.window(i - 1).end);
        }
        EXPECT_EQ(w.routers.size(),
                  static_cast<std::size_t>(net->numRouters()));
    }
    EXPECT_EQ(m.window(m.numWindows() - 1).end, net->now());
}

TEST(MetricsConservation, SampledRunSeesLinkTraffic)
{
    auto net = buildSampledNetwork(testParams(256));
    net->run(1200);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(20000));
    net->finishObservability();

    // Uniform-random traffic crosses mesh links, so some router must
    // show non-zero link utilization, and warmup windows must show
    // active routers under the (default) always-tick kernel.
    const MetricsSampler &m = *net->metrics();
    double util = 0.0;
    for (NodeId r = 0; r < net->numRouters(); ++r)
        util += m.meanLinkUtilization(r);
    EXPECT_GT(util, 0.0);
    EXPECT_GT(m.window(0).activeRouters, 0);
}

TEST(MetricsExport, JsonlHasOneObjectPerWindow)
{
    const std::string path =
        ::testing::TempDir() + "metrics_windows.jsonl";
    std::remove(path.c_str());

    MetricsParams p = testParams(128);
    p.jsonlPath = path;
    auto net = buildSampledNetwork(p);
    net->run(600);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(20000));
    net->finishObservability();

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "metrics JSONL not written";
    std::size_t lines = 0;
    std::string line;
    std::uint64_t summed = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"flits_ejected\":"), std::string::npos);
        // Re-derive the conservation sum from the exported text.
        const auto key = line.find("\"flits_ejected\":");
        summed += std::stoull(line.substr(key + 16));
    }
    EXPECT_EQ(lines, net->metrics()->numWindows());
    EXPECT_EQ(summed, net->stats().flitsEjected);
    std::remove(path.c_str());
}

TEST(MetricsExport, HeatmapTableIsWidthByHeight)
{
    MetricsSampler m(testParams(64), 64);
    std::vector<RouterWindowSample> samples(64);
    samples[9].linkFlits = 32; // router 9 = (x=1, y=1)
    m.recordWindow(64, samples, 64, 64);

    const Table t = m.heatmapTable(8, 8);
    EXPECT_EQ(t.numRows(), 8u);
    EXPECT_EQ(t.numCols(), 9u); // row label + 8 columns
    EXPECT_DOUBLE_EQ(m.meanLinkUtilization(9), 0.5);
    EXPECT_DOUBLE_EQ(m.meanLinkUtilization(0), 0.0);
}

} // namespace
} // namespace nox
