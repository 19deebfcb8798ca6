/** @file Tests for the experiment runners (synthetic + application)
 *  including paper-shape assertions on small configurations. */

#include <gtest/gtest.h>

#include <sstream>

#include "coherence/trace_generator.hpp"
#include "core/sim_runner.hpp"
#include "power/timing_model.hpp"

namespace nox {
namespace {

TEST(UnitConversion, MbpsFlitsRoundTrip)
{
    // 8000 MB/s at a 1 ns clock is exactly one 8-byte flit per cycle.
    EXPECT_DOUBLE_EQ(mbpsToFlitsPerCycle(8000.0, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(flitsPerCycleToMbps(1.0, 1.0), 8000.0);
    for (double mbps : {100.0, 575.0, 2775.0}) {
        for (double period : {0.69, 0.76, 0.92}) {
            EXPECT_NEAR(flitsPerCycleToMbps(
                            mbpsToFlitsPerCycle(mbps, period), period),
                        mbps, 1e-9);
        }
    }
}

TEST(UnitConversion, FasterClockMeansFewerFlitsPerCycle)
{
    EXPECT_LT(mbpsToFlitsPerCycle(1000.0, 0.69),
              mbpsToFlitsPerCycle(1000.0, 0.92));
}

SyntheticConfig
quickConfig(RouterArch arch, double mbps)
{
    SyntheticConfig c;
    c.arch = arch;
    c.injectionMBps = mbps;
    c.warmupCycles = 2000;
    c.measureCycles = 6000;
    c.drainLimitCycles = 60000;
    return c;
}

TEST(RunSynthetic, LowLoadLatencyNearZeroLoad)
{
    const RunResult r = runSynthetic(quickConfig(RouterArch::Nox, 200));
    EXPECT_FALSE(r.saturated);
    EXPECT_TRUE(r.drained);
    EXPECT_GT(r.packetsMeasured, 1000u);
    // 8x8 mesh zero-load is ~9 cycles; allow queueing slack.
    EXPECT_GT(r.avgLatencyCycles, 7.0);
    EXPECT_LT(r.avgLatencyCycles, 12.0);
    EXPECT_NEAR(r.avgLatencyNs, r.avgLatencyCycles * r.periodNs,
                1e-9);
}

TEST(RunSynthetic, AcceptedTracksOfferedBelowSaturation)
{
    const RunResult r =
        runSynthetic(quickConfig(RouterArch::SpecAccurate, 800));
    EXPECT_FALSE(r.saturated);
    EXPECT_NEAR(r.acceptedMBps, r.offeredMBps, r.offeredMBps * 0.08);
}

TEST(RunSynthetic, LatencyIncreasesWithLoad)
{
    const RunResult lo = runSynthetic(quickConfig(RouterArch::Nox, 300));
    const RunResult hi =
        runSynthetic(quickConfig(RouterArch::Nox, 1800));
    EXPECT_GT(hi.avgLatencyNs, lo.avgLatencyNs);
}

TEST(RunSynthetic, SaturationDetected)
{
    const RunResult r =
        runSynthetic(quickConfig(RouterArch::SpecFast, 4000));
    EXPECT_TRUE(r.saturated);
}

TEST(RunSynthetic, BeyondPeakInjectionMarkedSaturated)
{
    const RunResult r =
        runSynthetic(quickConfig(RouterArch::NonSpeculative, 20000));
    EXPECT_TRUE(r.saturated);
    EXPECT_EQ(r.packetsMeasured, 0u);
}

TEST(RunSynthetic, ClockPeriodRankingAtLowLoad)
{
    // At low load every router is near zero-load, so nanosecond
    // latency must follow Table 2's clock ordering (§5.1).
    double lat[4];
    int i = 0;
    for (RouterArch a : kAllArchs)
        lat[i++] = runSynthetic(quickConfig(a, 200)).avgLatencyNs;
    // NonSpec slowest; SpecFast fastest.
    EXPECT_GT(lat[0], lat[1]);
    EXPECT_GT(lat[0], lat[2]);
    EXPECT_GT(lat[0], lat[3]);
    EXPECT_LT(lat[1], lat[2]);
    EXPECT_LT(lat[2], lat[3]);
}

TEST(RunSynthetic, NoxWinsHighLoadSingleFlit)
{
    // Above the crossover region the NoX offers the lowest latency
    // (Fig 8a shape).
    double lat[4];
    int i = 0;
    for (RouterArch a : kAllArchs)
        lat[i++] = runSynthetic(quickConfig(a, 2500)).avgLatencyNs;
    EXPECT_LT(lat[3], lat[0]);
    EXPECT_LT(lat[3], lat[1]);
    EXPECT_LT(lat[3], lat[2]);
}

TEST(RunSynthetic, EnergyBreakdownPopulated)
{
    const RunResult r = runSynthetic(quickConfig(RouterArch::Nox, 800));
    EXPECT_GT(r.energy.totalPj(), 0.0);
    EXPECT_GT(r.energy.linkFraction(), 0.4);
    EXPECT_GT(r.powerW, 0.0);
    EXPECT_GT(r.energyPerPacketPj, 0.0);
    EXPECT_GT(r.ed2, 0.0);
}

TEST(RunSynthetic, SpecRoutersWasteLinkEnergyNoxDoesNot)
{
    const RunResult spec =
        runSynthetic(quickConfig(RouterArch::SpecAccurate, 1500));
    const RunResult noxr =
        runSynthetic(quickConfig(RouterArch::Nox, 1500));
    // Same offered bytes; the speculative router's link energy
    // includes misspeculation drives (§3.2).
    EXPECT_GT(spec.energy.linkPj, noxr.energy.linkPj * 1.005);
}

TEST(RunSynthetic, SelfSimilarRunsAndIsBurstier)
{
    SyntheticConfig c = quickConfig(RouterArch::Nox, 800);
    c.selfSimilar = true;
    c.measureCycles = 10000;
    const RunResult pareto = runSynthetic(c);
    EXPECT_GT(pareto.packetsMeasured, 100u);
    // Bursty traffic queues more at equal mean load.
    const RunResult bern = runSynthetic(quickConfig(RouterArch::Nox,
                                                    800));
    EXPECT_GT(pareto.avgLatencyNs, bern.avgLatencyNs);
}

TEST(RunSynthetic, DeterministicAcrossRuns)
{
    const RunResult a = runSynthetic(quickConfig(RouterArch::Nox, 600));
    const RunResult b = runSynthetic(quickConfig(RouterArch::Nox, 600));
    EXPECT_DOUBLE_EQ(a.avgLatencyNs, b.avgLatencyNs);
    EXPECT_EQ(a.packetsMeasured, b.packetsMeasured);
}

TEST(RunSynthetic, BufferDepthPricesClockAndEnergy)
{
    // The physical model prices the FIFOs the network simulates: a
    // depth-8 run reads the period and energy of a depth-8
    // PhysicalParams, not of the default depth.
    SyntheticConfig c = quickConfig(RouterArch::Nox, 300);
    c.net.width = 4;
    c.net.height = 4;
    c.warmupCycles = 200;
    c.measureCycles = 1000;
    c.net.router.bufferDepth = 8;
    c.net.sinkBufferDepth = 8;
    SyntheticConfig spelled = c;
    spelled.phys.bufferDepth = 8;
    PhysicalParams shallow = c.phys;
    shallow.bufferDepth = 4;

    const RunResult r = runSynthetic(c);
    const RunResult want = runSynthetic(spelled);
    EXPECT_EQ(r.periodNs, TimingModel(c.tech, spelled.phys)
                              .clockPeriodNs(RouterArch::Nox));
    EXPECT_NE(r.periodNs,
              TimingModel(c.tech, shallow).clockPeriodNs(RouterArch::Nox));
    EXPECT_EQ(r.periodNs, want.periodNs);
    ASSERT_GT(r.packetsMeasured, 0u);
    EXPECT_EQ(r.energyPerPacketPj, want.energyPerPacketPj);
    EXPECT_EQ(r.energy.totalPj(), want.energy.totalPj());
}

TEST(RunApplication, ReplaysTraceThroughBothNetworks)
{
    CmpParams params;
    CoherenceTraceGenerator gen(params, findWorkload("water"), 11);
    const Trace trace = gen.generate(2500.0, 5000.0);

    AppConfig config;
    config.arch = RouterArch::Nox;
    const AppResult r = runApplication(config, trace);
    EXPECT_TRUE(r.drained);
    EXPECT_GT(r.packets, 1000u);
    EXPECT_GT(r.avgLatencyNs, 4.0);
    EXPECT_LT(r.avgLatencyNs, 60.0);
    EXPECT_GT(r.avgLatencyNsRequest, 0.0);
    EXPECT_GT(r.avgLatencyNsReply, 0.0);
    EXPECT_GE(r.avgTotalLatencyNs, r.avgLatencyNs);
    EXPECT_GT(r.energyPerPacketPj, 0.0);
    EXPECT_GT(r.ed2, 0.0);
}

TEST(RunApplication, ArchitectureOrderingOnApplicationTraffic)
{
    CmpParams params;
    CoherenceTraceGenerator gen(params, findWorkload("barnes"), 11);
    const Trace trace = gen.generate(4000.0, 8000.0);

    double lat[4];
    int i = 0;
    for (RouterArch a : kAllArchs) {
        AppConfig config;
        config.arch = a;
        lat[i++] = runApplication(config, trace).avgLatencyNs;
    }
    // NonSpec worst; the NoX/Spec-Accurate pair leads (EXPERIMENTS.md
    // discusses the intra-pair placement vs the paper).
    EXPECT_GT(lat[0], lat[2]);
    EXPECT_GT(lat[0], lat[3]);
    EXPECT_GT(lat[1], lat[2]);
    EXPECT_GT(lat[1], lat[3]);
}

TEST(RunApplication, SavedTraceReplaysLikeTheGeneratedOne)
{
    // Writing a trace to a file and reading it back must not move any
    // record to another cycle: the replay is identical.
    CmpParams params;
    CoherenceTraceGenerator gen(params, findWorkload("tpcc"), 99);
    const Trace trace = gen.generate(4000.0, 6000.0);
    std::stringstream ss;
    writeTrace(ss, trace);
    const Trace loaded = readTrace(ss, trace.name);

    AppConfig config;
    config.arch = RouterArch::Nox;
    const AppResult a = runApplication(config, trace);
    const AppResult b = runApplication(config, loaded);
    EXPECT_EQ(a.packets, b.packets);
    EXPECT_EQ(a.avgLatencyNs, b.avgLatencyNs);
    EXPECT_EQ(a.avgTotalLatencyNs, b.avgTotalLatencyNs);
    EXPECT_EQ(a.ed2, b.ed2);
}

TEST(RunApplication, RejectsNodesOutsideTheMesh)
{
    AppConfig config; // 8x8
    Trace trace;
    trace.records = {{1.0, 0, 5, 8, 0, TrafficClass::Request},
                     {2.0, 3, 99, 8, 0, TrafficClass::Request}};
    EXPECT_EXIT(runApplication(config, trace),
                ::testing::ExitedWithCode(1),
                "trace record 1 \\(time_ns 2, src 3, dst 99\\) names a "
                "node outside the 8x8 mesh \\(valid: 0\\.\\.63\\)");
    trace.records[1].src = -1;
    trace.records[1].dst = 4;
    EXPECT_EXIT(runApplication(config, trace),
                ::testing::ExitedWithCode(1),
                "trace record 1 \\(time_ns 2, src -1, dst 4\\)");
}

TEST(RunApplication, RejectsInjectionsPastTheCycleRange)
{
    // A time whose cycle does not fit a Cycle used to cast to cycle 0
    // and replay at once; it is refused, naming the record.
    AppConfig config;
    Trace trace;
    trace.records = {{1.5, 0, 5, 8, 0, TrafficClass::Request},
                     {1e30, 0, 5, 8, 0, TrafficClass::Request}};
    EXPECT_EXIT(runApplication(config, trace),
                ::testing::ExitedWithCode(1),
                "trace record 1 \\(time_ns 1e\\+30\\) injects outside "
                "the cycle range of a 0\\.75.* ns clock");
    trace.records[1].timeNs = -5.0; // only readTrace refuses this
    EXPECT_EXIT(runApplication(config, trace),
                ::testing::ExitedWithCode(1),
                "trace record 1 \\(time_ns -5\\) injects outside");

    // Cycle 2^63 is in range: the replay accepts it and stops at the
    // cycle limit, undrained.
    const double period =
        TimingModel(config.tech, config.phys).clockPeriodNs(config.arch);
    trace.records[1].timeNs = 0x1p63 * period;
    config.drainLimitCycles = 50;
    EXPECT_FALSE(runApplication(config, trace).drained);
}

TEST(RunApplication, ReplaysTheLargestPacket)
{
    // 2,048 bytes is kMaxPacketFlits 8-byte flits, the most a flit
    // uid numbers; readTrace refuses a byte more.
    Trace trace;
    trace.records = {{1.0, 0, 63, 2048, 1, TrafficClass::Reply}};
    ASSERT_EQ(trace.records[0].flits(), kMaxPacketFlits);
    const AppResult r = runApplication(AppConfig{}, trace);
    EXPECT_TRUE(r.drained);
    EXPECT_EQ(r.packets, 1u);
}

TEST(RunApplication, PerNetworkTotalsAreEachReplaysMean)
{
    CmpParams params;
    CoherenceTraceGenerator gen(params, findWorkload("fft"), 5);
    const Trace trace = gen.generate(1500.0, 3000.0);
    AppConfig config;
    config.arch = RouterArch::SpecAccurate;
    const AppResult r = runApplication(config, trace);

    NetworkParams net; // AppConfig's mesh and buffers
    for (std::uint8_t physNet : {0, 1}) {
        const ReplayOutcome one =
            replayTrace(net, config.arch, trace.forNetwork(physNet),
                        r.periodNs, config.drainLimitCycles);
        ASSERT_TRUE(one.drained);
        ASSERT_GT(one.stats.latency.count(), 0u);
        EXPECT_EQ(physNet == 0 ? r.avgTotalLatencyNsRequest
                               : r.avgTotalLatencyNsReply,
                  one.stats.latency.mean() * r.periodNs);
        EXPECT_EQ(physNet == 0 ? r.avgLatencyNsRequest
                               : r.avgLatencyNsReply,
                  one.stats.netLatency.mean() * r.periodNs);
    }
}

TEST(ReplayTrace, TwoVirtualChannelsCarryBothClasses)
{
    // §2.8's alternative: one 2-VC network replays the whole trace and
    // delivers what the request/reply pair delivers, class by class.
    CmpParams params;
    CoherenceTraceGenerator gen(params, findWorkload("water"), 11);
    const Trace trace = gen.generate(1500.0, 3000.0);
    const AppConfig app;
    const RouterArch arch = RouterArch::NonSpeculative;
    const double period =
        TimingModel(app.tech, app.phys).clockPeriodNs(arch);

    NetworkParams pair;
    const ReplayOutcome req = replayTrace(
        pair, arch, trace.forNetwork(0), period, app.drainLimitCycles);
    const ReplayOutcome rep = replayTrace(
        pair, arch, trace.forNetwork(1), period, app.drainLimitCycles);
    NetworkParams vc;
    vc.router.vcCount = 2;
    const ReplayOutcome one = replayTrace(vc, arch, trace.records, period,
                                          app.drainLimitCycles);

    ASSERT_TRUE(req.drained);
    ASSERT_TRUE(rep.drained);
    ASSERT_TRUE(one.drained);
    EXPECT_EQ(one.stats.packetsEjected,
              req.stats.packetsEjected + rep.stats.packetsEjected);
    const auto &byClass = one.stats.latencyByClass;
    const auto count = [&](TrafficClass cls) {
        return byClass[static_cast<std::size_t>(cls)].count();
    };
    EXPECT_GT(count(TrafficClass::Request), 0u);
    EXPECT_GT(count(TrafficClass::Reply), 0u);
    EXPECT_EQ(count(TrafficClass::Request), req.stats.latency.count());
    EXPECT_EQ(count(TrafficClass::Reply), rep.stats.latency.count());
}

} // namespace
} // namespace nox
