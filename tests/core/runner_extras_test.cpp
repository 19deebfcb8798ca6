/** @file Runner coverage extras: percentiles, CMesh configurations,
 *  activity counters, and the fragmentation-equivalence sanity. */

#include <gtest/gtest.h>

#include "core/sim_runner.hpp"

namespace nox {
namespace {

SyntheticConfig
quick(RouterArch arch, double mbps)
{
    SyntheticConfig c;
    c.arch = arch;
    c.injectionMBps = mbps;
    c.warmupCycles = 2000;
    c.measureCycles = 6000;
    c.drainLimitCycles = 60000;
    return c;
}

TEST(RunnerExtras, PercentilesOrderedAboveMean)
{
    const RunResult r = runSynthetic(quick(RouterArch::Nox, 1500));
    EXPECT_GT(r.p95LatencyNs, r.avgLatencyNs);
    EXPECT_GE(r.p99LatencyNs, r.p95LatencyNs);
    // Tail below ~4x mean at this moderate load.
    EXPECT_LT(r.p99LatencyNs, 4.0 * r.avgLatencyNs);
}

TEST(RunnerExtras, WasteCountersByArchitecture)
{
    const RunResult noxr = runSynthetic(quick(RouterArch::Nox, 1800));
    EXPECT_EQ(noxr.misspecCycles, 0u);
    EXPECT_EQ(noxr.abortCycles, 0u); // single-flit never aborts
    EXPECT_EQ(noxr.wastedLinkCycles, 0u);

    const RunResult acc =
        runSynthetic(quick(RouterArch::SpecAccurate, 1800));
    EXPECT_GT(acc.misspecCycles, 0u);
    EXPECT_EQ(acc.wastedLinkCycles, acc.misspecCycles);

    SyntheticConfig mf = quick(RouterArch::Nox, 1500);
    mf.packetFlits = 9;
    const RunResult data = runSynthetic(mf);
    EXPECT_GT(data.abortCycles, 0u);
}

TEST(RunnerExtras, CMeshConfigurationRuns)
{
    SyntheticConfig c = quick(RouterArch::Nox, 700);
    c.net.width = 4;
    c.net.height = 4;
    c.net.concentration = 4;
    const RunResult r = runSynthetic(c);
    EXPECT_FALSE(r.saturated);
    EXPECT_GT(r.packetsMeasured, 500u);
    // The CMesh clock is slower than the plain mesh's (radix-8
    // arbiter, 4 mm channels).
    EXPECT_GT(r.periodNs, 0.80);
}

TEST(RunnerExtras, CMeshLowerZeroLoadCycles)
{
    // Half the network diameter: fewer hops at low load than the
    // 8x8 mesh, in cycles.
    SyntheticConfig mesh = quick(RouterArch::Nox, 300);
    SyntheticConfig cmesh = quick(RouterArch::Nox, 300);
    cmesh.net.width = 4;
    cmesh.net.height = 4;
    cmesh.net.concentration = 4;
    const RunResult rm = runSynthetic(mesh);
    const RunResult rc = runSynthetic(cmesh);
    EXPECT_LT(rc.avgLatencyCycles, rm.avgLatencyCycles);
}

TEST(RunnerExtras, SeedChangesTrafficNotInvariants)
{
    SyntheticConfig a = quick(RouterArch::Nox, 900);
    SyntheticConfig b = a;
    b.seed = a.seed + 1;
    const RunResult ra = runSynthetic(a);
    const RunResult rb = runSynthetic(b);
    EXPECT_TRUE(ra.drained);
    EXPECT_TRUE(rb.drained);
    EXPECT_NE(ra.packetsMeasured, rb.packetsMeasured);
    EXPECT_NEAR(ra.avgLatencyNs, rb.avgLatencyNs,
                0.15 * ra.avgLatencyNs);
}

TEST(RunnerExtras, FragmentedPayloadEquivalence)
{
    // The §2.7 fragmentation ablation's premise: 9-flit packets at
    // rate R and 1-flit packets at rate 12R/9 carry the same payload
    // with header overhead; both configurations must run unsaturated
    // at a moderate payload rate and deliver proportional flit
    // volume.
    SyntheticConfig contig = quick(RouterArch::Nox, 900);
    contig.packetFlits = 9;
    SyntheticConfig frag = quick(RouterArch::Nox, 900.0 * 12 / 9);
    frag.packetFlits = 1;

    const RunResult rc = runSynthetic(contig);
    const RunResult rf = runSynthetic(frag);
    EXPECT_FALSE(rc.saturated);
    EXPECT_FALSE(rf.saturated);
    EXPECT_EQ(rf.abortCycles, 0u);
    EXPECT_NEAR(rf.acceptedMBps / rc.acceptedMBps, 12.0 / 9.0, 0.08);
}

} // namespace
} // namespace nox
