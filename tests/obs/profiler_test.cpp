/**
 * @file
 * Self-profiler and run-telemetry unit tests: phase accounting
 * (scopes sum into the step total, nesting is rejected), the
 * load-imbalance index on hand-built work distributions, the
 * row-stripe partition, the telemetry JSONL heartbeat schema, and
 * the profile JSONL export — the latter two through a real Network.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "obs/jsonl.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

// ---- phase accounting --------------------------------------------

TEST(PhaseProfiler, ScopedPhasesSumIntoStepTotal)
{
    PhaseProfiler prof({}, 4);
    for (int i = 0; i < 50; ++i) {
        prof.beginStep();
        {
            ProfScope s(&prof, SimPhase::TrafficInject);
        }
        {
            ProfScope s(&prof, SimPhase::RouterEvaluate);
        }
        {
            ProfScope s(&prof, SimPhase::Scheduler);
        }
        prof.endStep();
    }
    EXPECT_EQ(prof.steps(), 50u);
    EXPECT_EQ(prof.phase(SimPhase::TrafficInject).enters, 50u);
    EXPECT_EQ(prof.phase(SimPhase::RouterEvaluate).enters, 50u);
    EXPECT_EQ(prof.phase(SimPhase::Scheduler).enters, 50u);
    EXPECT_EQ(prof.phase(SimPhase::LinkRetry).enters, 0u);
    EXPECT_EQ(prof.phase(SimPhase::Checkpoint).enters, 0u);
    // The scopes ran strictly inside the step timer, so their sum
    // cannot exceed it, and coverage is a valid fraction.
    EXPECT_LE(prof.phaseNsSum(), prof.totalNs());
    EXPECT_GE(prof.coverage(), 0.0);
    EXPECT_LE(prof.coverage(), 1.0);
}

TEST(PhaseProfiler, CoverageIsOneWithNoTimedSteps)
{
    PhaseProfiler prof({}, 1);
    EXPECT_EQ(prof.steps(), 0u);
    EXPECT_EQ(prof.totalNs(), 0u);
    EXPECT_DOUBLE_EQ(prof.coverage(), 1.0);
}

TEST(PhaseProfilerDeathTest, NestedPhaseScopesPanic)
{
    PhaseProfiler prof({}, 1);
    prof.beginStep();
    prof.enterPhase(SimPhase::RouterEvaluate);
    EXPECT_DEATH(prof.enterPhase(SimPhase::NicEject), "nest");
}

TEST(PhaseProfilerDeathTest, LeavingAPhaseThatIsNotOpenPanics)
{
    PhaseProfiler prof({}, 1);
    prof.beginStep();
    prof.enterPhase(SimPhase::RouterEvaluate);
    EXPECT_DEATH(prof.leavePhase(SimPhase::NicEject), "not open");
}

TEST(PhaseProfilerDeathTest, OpenPhaseAcrossStepBoundaryPanics)
{
    PhaseProfiler prof({}, 1);
    prof.beginStep();
    prof.enterPhase(SimPhase::Scheduler);
    EXPECT_DEATH(prof.endStep(), "open");
}

TEST(PhaseProfiler, RouterWorkAccumulates)
{
    PhaseProfiler prof({}, 3);
    for (int cycle = 0; cycle < 2; ++cycle) {
        for (NodeId r = 0; r < 3; ++r)
            prof.countEval(r);
    }
    prof.countEval(1);
    prof.recordRouterWork(1, 40, 7);
    EXPECT_EQ(prof.evaluations(0), 2u);
    EXPECT_EQ(prof.evaluations(1), 3u);
    EXPECT_EQ(prof.evaluations(2), 2u);
    const RouterWork w = prof.routerWork(1);
    EXPECT_EQ(w.evaluations, 3u);
    EXPECT_EQ(w.flitsMoved, 40u);
    EXPECT_EQ(w.arbRounds, 7u);
    EXPECT_EQ(prof.routerWork(0).flitsMoved, 0u);
}

// ---- imbalance index ---------------------------------------------

TEST(LoadImbalance, BalancedDistributionIsOne)
{
    // 4 routers, 2 shards, equal work everywhere.
    const std::vector<std::uint64_t> work{10, 10, 10, 10};
    const std::vector<int> shardOf{0, 0, 1, 1};
    EXPECT_DOUBLE_EQ(loadImbalance(work, shardOf, 2), 1.0);
}

TEST(LoadImbalance, AllWorkOnOneShardIsShardCount)
{
    const std::vector<std::uint64_t> work{30, 30, 0, 0};
    const std::vector<int> shardOf{0, 0, 1, 1};
    // Shard loads 60 and 0: max 60, mean 30 -> index 2 (= k shards).
    EXPECT_DOUBLE_EQ(loadImbalance(work, shardOf, 2), 2.0);
}

TEST(LoadImbalance, SkewedDistribution)
{
    const std::vector<std::uint64_t> work{9, 3, 2, 2};
    const std::vector<int> shardOf{0, 1, 2, 3};
    // Shard loads 9,3,2,2: max 9, mean 4 -> 2.25.
    EXPECT_DOUBLE_EQ(loadImbalance(work, shardOf, 4), 2.25);
}

TEST(LoadImbalance, ZeroWorkIsBalancedByConvention)
{
    const std::vector<std::uint64_t> work{0, 0};
    const std::vector<int> shardOf{0, 1};
    EXPECT_DOUBLE_EQ(loadImbalance(work, shardOf, 2), 1.0);
}

TEST(RowStripePartition, CoversEveryRouterInOrder)
{
    // 8x8 mesh into 4 stripes: 2 rows (16 routers) per stripe.
    const std::vector<int> shardOf = rowStripePartition(8, 8, 4);
    ASSERT_EQ(shardOf.size(), 64u);
    std::vector<int> counts(4, 0);
    for (std::size_t r = 0; r < shardOf.size(); ++r) {
        ASSERT_GE(shardOf[r], 0);
        ASSERT_LT(shardOf[r], 4);
        // Stripes are contiguous by row index.
        EXPECT_EQ(shardOf[r], static_cast<int>(r / 8) * 4 / 8);
        counts[static_cast<std::size_t>(shardOf[r])] += 1;
    }
    for (int c : counts)
        EXPECT_EQ(c, 16);
}

TEST(RowStripePartition, UnevenHeightStillCoversAll)
{
    // 5 rows into 2 shards: every router assigned, both shards used.
    const std::vector<int> shardOf = rowStripePartition(4, 5, 2);
    ASSERT_EQ(shardOf.size(), 20u);
    std::vector<int> counts(2, 0);
    for (int s : shardOf) {
        ASSERT_GE(s, 0);
        ASSERT_LT(s, 2);
        counts[static_cast<std::size_t>(s)] += 1;
    }
    EXPECT_GT(counts[0], 0);
    EXPECT_GT(counts[1], 0);
}

// ---- telemetry + profile exports through a real Network ----------

std::unique_ptr<Network>
buildObservedNetwork(const ObsParams &obs)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.obs = obs;
    auto net = makeNetwork(params, RouterArch::Nox);
    static const Mesh mesh(4, 4);
    static const DestinationPattern pat(PatternKind::UniformRandom,
                                        mesh, 0.2);
    Rng seeder(0xBEA7);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pat, 0.05, 2, seeder.next()));
    }
    return net;
}

TEST(RunTelemetry, JsonlHeartbeatSchemaRoundTrip)
{
    const std::string path =
        testing::TempDir() + "nox_telemetry_test.jsonl";
    std::remove(path.c_str());

    ObsParams obs;
    obs.telemetry.enabled = true;
    obs.telemetry.interval = 100;
    obs.telemetry.jsonlPath = path;
    auto net = buildObservedNetwork(obs);
    ASSERT_NE(net->telemetry(), nullptr);
    net->telemetry()->setTargetCycles(1000);
    net->run(1000);

    EXPECT_EQ(net->telemetry()->beats(), 10u);
    const TelemetryRecord &last = net->telemetry()->lastRecord();
    EXPECT_EQ(last.sample.cycle, 1000u);
    EXPECT_GT(last.cumCyclesPerSec, 0.0);
    EXPECT_EQ(last.sample.checkpointAge, -1);

    // Each heartbeat parses with every key of the schema named once,
    // in order, with its type; an extra or missing key fails.
    jsonl::Reader r(path);
    std::size_t lines = 0;
    while (r.next()) {
        ++lines;
        TelemetryRecord rec;
        TelemetrySample &s = rec.sample;
        Cycle target = 0;
        r.record([&] {
            r.tag("type", "telemetry");
            r.field("cycle", s.cycle);
            r.field("target_cycles", target);
            r.field("wall_s", rec.wallSeconds);
            r.field("cps_inst", rec.instCyclesPerSec);
            r.field("cps_cum", rec.cumCyclesPerSec);
            r.field("eta_s", rec.etaSeconds);
            r.field("active_routers", s.activeRouters);
            r.field("active_nics", s.activeNics);
            r.field("inflight", s.packetsInFlight);
            r.field("injected", s.packetsInjected);
            r.field("ejected", s.packetsEjected);
            r.field("faults_injected", s.faultsInjected);
            r.field("retransmissions", s.retransmissions);
            r.field("e2e_retransmits", s.e2eRetransmits);
            r.field("dup_suppressed", s.dupSuppressed);
            r.field("heals_applied", s.healsApplied);
            r.field("dead_entities", s.deadEntities);
            r.field("peak_rss_kb", rec.peakRssKb);
            r.field("ckpt_age", s.checkpointAge);
            r.field("digest_strides", s.digestStrides);
            r.field("last_digest_cycle", s.lastDigestCycle);
        });
        EXPECT_EQ(s.cycle, 100u * lines);
        EXPECT_EQ(target, 1000u);
        EXPECT_GT(rec.cumCyclesPerSec, 0.0);
        EXPECT_GT(rec.peakRssKb, 0);
        EXPECT_EQ(s.checkpointAge, -1);
        EXPECT_EQ(s.digestStrides, -1);
    }
    EXPECT_EQ(lines, 10u);
    std::remove(path.c_str());
}

TEST(RunTelemetry, FormatLineRendersEta)
{
    TelemetryRecord rec;
    rec.sample.cycle = 50000;
    rec.sample.activeRouters = 16;
    rec.sample.activeNics = 16;
    rec.sample.packetsInFlight = 7;
    rec.instCyclesPerSec = 90000.0;
    rec.cumCyclesPerSec = 88000.0;
    rec.etaSeconds = 12.5;
    const std::string line =
        RunTelemetry::formatLine(rec, 100000);
    EXPECT_NE(line.find("cycle 50000/100000"), std::string::npos)
        << line;
    EXPECT_NE(line.find("eta"), std::string::npos) << line;
    EXPECT_NE(line.find("16r+16n"), std::string::npos) << line;
}

TEST(RunTelemetry, PeakRssIsPositiveOnSupportedPlatforms)
{
#if defined(__unix__) || defined(__APPLE__)
    EXPECT_GT(RunTelemetry::peakRssKb(), 0);
#else
    SUCCEED();
#endif
}

TEST(PhaseProfiler, NetworkProfileJsonlExport)
{
    const std::string path =
        testing::TempDir() + "nox_profile_test.jsonl";
    std::remove(path.c_str());

    ObsParams obs;
    obs.profile.enabled = true;
    obs.profile.jsonlPath = path;
    auto net = buildObservedNetwork(obs);
    ASSERT_NE(net->profiler(), nullptr);
    net->run(500);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(20000));
    net->finishObservability();

    const PhaseProfiler *prof = net->profiler();
    EXPECT_EQ(prof->steps(), net->now());
    // Always-tick: every router evaluated on every stepped cycle.
    for (NodeId r = 0; r < 16; ++r)
        EXPECT_EQ(prof->evaluations(r), net->now());

    ProfileFile p;
    std::string err;
    ASSERT_TRUE(loadProfile(path, p, err)) << err;
    EXPECT_EQ(p.steps, prof->steps());
    EXPECT_EQ(p.totalNs, prof->totalNs());
    EXPECT_EQ(p.phaseNsSum, prof->phaseNsSum());
    EXPECT_EQ(p.coverage, prof->coverage());
    EXPECT_EQ(p.meta.arch, "NoX");
    EXPECT_EQ(p.meta.width, 4);
    EXPECT_EQ(p.meta.height, 4);
    ASSERT_EQ(p.phases.size(), kNumSimPhases);
    EXPECT_EQ(p.phases[2].name, "router_evaluate");
    ASSERT_EQ(p.routers.size(), 16u);
    for (NodeId r = 0; r < 16; ++r)
        EXPECT_EQ(p.routers[r].work.evaluations, net->now());
    EXPECT_EQ(p.imbalances.size(), 2u);
    std::remove(path.c_str());
}

} // namespace
} // namespace nox
