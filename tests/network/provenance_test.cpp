/**
 * @file
 * Latency-provenance conservation: for every router architecture,
 * every scheduling kernel, and both fault regimes (soft CRC/retry
 * faults and hard fail-stop kills), every delivered packet's latency
 * components must sum *exactly* to its measured latency, no span may
 * outlive a full drain, and the aggregated breakdown must itself
 * conserve and match NetworkStats' measured-packet count.
 *
 * The cross-kernel half extends the `identicalStats` contract to the
 * observer: the aggregated LatencyBreakdown (total and per-class) is
 * bit-identical across the always-tick and activity-driven kernels,
 * stepped in per-cycle digest lockstep.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "obs/provenance.hpp"
#include "routers/factory.hpp"
#include "support/kernel_lockstep.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kWarmup = 300;
constexpr Cycle kMeasure = 900;
constexpr Cycle kDrainLimit = 500000;
constexpr std::uint64_t kSeed = 0x9A0B5;

std::unique_ptr<Network>
buildNetwork(RouterArch arch, SchedulingMode mode,
             const FaultParams &faults = {}, int vc_count = 1,
             double load = 0.10, int packet_flits = 3)
{
    NetworkParams params;
    params.width = 8;
    params.height = 8;
    params.schedulingMode = mode;
    params.faults = faults;
    params.router.vcCount = vc_count;
    params.obs.prov.enabled = true;
    auto net = makeNetwork(params, arch);

    static const Mesh mesh(8, 8);
    static const DestinationPattern pat(PatternKind::UniformRandom,
                                        mesh, 0.2);
    Rng seeder(kSeed);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pat, load, packet_flits, seeder.next()));
    }
    net->setMeasurementWindow(kWarmup, kWarmup + kMeasure);
    return net;
}

/** Assert every provenance invariant of a drained @p net. Returns
 *  the aggregated breakdown for cross-run comparisons. */
LatencyBreakdown
checkConserved(Network &net, const std::string &what)
{
    EXPECT_TRUE(net.lastDrainReport().drained)
        << what << ": " << net.lastDrainReport().summary();
    net.finishObservability();

    const LatencyProvenance *prov = net.provenance();
    EXPECT_NE(prov, nullptr) << what;
    if (prov == nullptr)
        return {};

    // Per-packet conservation held on every delivery.
    EXPECT_EQ(prov->conservationViolations(), 0u)
        << what << ": components did not sum to measured latency";
    // Nothing is still tracked after a full drain (hard-fault
    // write-offs must have been forgotten, not leaked).
    EXPECT_EQ(prov->openSpans(), 0u)
        << what << ": spans leaked past the drain";

    const LatencyBreakdown &b = prov->total();
    // Aggregate conservation and agreement with NetworkStats.
    EXPECT_EQ(b.componentsSum(), b.totalCycles) << what;
    EXPECT_EQ(b.packets, net.stats().packetsMeasuredDone) << what;
    // All traffic here is Synthetic, so the class split is trivial
    // and must exactly reproduce the total.
    EXPECT_TRUE(
        prov->byClass(TrafficClass::Synthetic).identicalTo(b))
        << what;

    // The per-flow rows partition the total: their sums must
    // reassemble it exactly.
    LatencyBreakdown flows;
    for (const auto &[key, fb] : prov->byFlow()) {
        flows.packets += fb.packets;
        flows.totalCycles += fb.totalCycles;
        for (std::size_t i = 0; i < kNumLatencyComponents; ++i)
            flows.comp[i] += fb.comp[i];
        EXPECT_EQ(fb.componentsSum(), fb.totalCycles)
            << what << ": flow " << (key >> 32) << "->"
            << (key & 0xffffffffu);
    }
    EXPECT_TRUE(flows.identicalTo(b))
        << what << ": flow rows do not partition the total";

    // Sanity on the shape: measured packets exist and each costs at
    // least the minimum productive pipeline cycles.
    EXPECT_GT(b.packets, 0u) << what;
    EXPECT_GE(b[LatencyComponent::RouterPipeline], b.packets) << what;
    return b;
}

/** Run to quiescence, then checkConserved(). */
LatencyBreakdown
runConserved(Network &net, const std::string &what)
{
    net.run(kWarmup + kMeasure);
    net.setSourcesEnabled(false);
    net.drain(kDrainLimit);
    return checkConserved(net, what);
}

FaultParams
softFaults()
{
    FaultParams f;
    f.enabled = true;
    f.bitflipRate = 1e-4;
    f.creditLossRate = 1e-4;
    f.seed = 0xBEEF;
    return f;
}

FaultParams
hardFaults()
{
    FaultParams f;
    f.enabled = true;
    f.hardLinkFaults = 2;
    f.hardRouterFaults = 1;
    f.hardFaultCycle = kWarmup + kMeasure / 2;
    f.seed = 0xC0FFEE;
    return f;
}

struct Case
{
    RouterArch arch;
    const char *regime; // "clean", "soft", "hard"
};

class ProvenanceConservation : public ::testing::TestWithParam<Case>
{
  protected:
    static FaultParams
    faultsFor(const std::string &regime)
    {
        if (regime == "soft")
            return softFaults();
        if (regime == "hard")
            return hardFaults();
        return {};
    }
};

TEST_P(ProvenanceConservation, ComponentsSumExactly)
{
    const auto [arch, regime] = GetParam();
    const std::string what =
        std::string(archName(arch)) + "/" + regime;
    auto net = buildNetwork(arch, SchedulingMode::AlwaysTick,
                            faultsFor(regime));
    runConserved(*net, what);
}

TEST_P(ProvenanceConservation, BreakdownIdenticalAcrossKernels)
{
    // The aggregated attribution is part of the deterministic
    // observable state: both scheduling kernels must produce a
    // bit-identical breakdown, not merely bit-identical NetworkStats.
    const auto [arch, regime] = GetParam();
    const FaultParams faults = faultsFor(regime);
    const std::string what =
        std::string(archName(arch)) + "/" + regime;

    auto tick =
        buildNetwork(arch, SchedulingMode::AlwaysTick, faults);
    auto activity =
        buildNetwork(arch, SchedulingMode::ActivityDriven, faults);
    test::KernelLockstep lockstep(*tick, *activity);
    const auto run = lockstep.run(kWarmup + kMeasure);
    ASSERT_FALSE(run) << what << ": " << *run;
    const auto drained = lockstep.drain(kDrainLimit);
    ASSERT_FALSE(drained) << what << ": " << *drained;
    const LatencyBreakdown a =
        checkConserved(*tick, what + "/alwaystick");
    const LatencyBreakdown b =
        checkConserved(*activity, what + "/activity");

    EXPECT_TRUE(identicalStats(tick->stats(), activity->stats()))
        << what;
    EXPECT_TRUE(a.identicalTo(b))
        << what << ": activity kernel changed the attribution";
    for (int cls = 0; cls < 3; ++cls) {
        const auto tc = static_cast<TrafficClass>(cls);
        EXPECT_TRUE(tick->provenance()->byClass(tc).identicalTo(
            activity->provenance()->byClass(tc)))
            << what << " class " << cls;
    }
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndRegimes, ProvenanceConservation,
    ::testing::Values(
        Case{RouterArch::NonSpeculative, "clean"},
        Case{RouterArch::SpecFast, "clean"},
        Case{RouterArch::SpecAccurate, "clean"},
        Case{RouterArch::Nox, "clean"},
        Case{RouterArch::NonSpeculative, "soft"},
        Case{RouterArch::SpecFast, "soft"},
        Case{RouterArch::SpecAccurate, "soft"},
        Case{RouterArch::Nox, "soft"},
        Case{RouterArch::NonSpeculative, "hard"},
        Case{RouterArch::SpecFast, "hard"},
        Case{RouterArch::SpecAccurate, "hard"},
        Case{RouterArch::Nox, "hard"}),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string name = std::string(archName(info.param.arch)) +
                           "_" + info.param.regime;
        std::erase_if(name, [](char c) {
            return c != '_' &&
                   !std::isalnum(static_cast<unsigned char>(c));
        });
        return name;
    });

TEST(ProvenanceConservation, VirtualChannelRouter)
{
    // vc_count > 1 swaps in the VC router — a different pipeline with
    // its own arbitration and credit paths; conservation must hold
    // there too, clean and under soft faults.
    auto clean = buildNetwork(RouterArch::NonSpeculative,
                              SchedulingMode::AlwaysTick, {}, 2);
    runConserved(*clean, "vc2/clean");
    auto soft = buildNetwork(RouterArch::NonSpeculative,
                             SchedulingMode::AlwaysTick, softFaults(),
                             2);
    runConserved(*soft, "vc2/soft");
}

TEST(ProvenanceConservation, UnmeasuredPacketsStillConserve)
{
    // A window that excludes everything: aggregates stay empty, but
    // tracked spans must still close cleanly (conservation is checked
    // on every delivery, measured or not).
    auto net = buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick);
    net->setMeasurementWindow(1u << 30, (1u << 30) + 1);
    net->run(kWarmup + kMeasure);
    net->setSourcesEnabled(false);
    ASSERT_TRUE(net->drain(kDrainLimit));
    const LatencyProvenance *prov = net->provenance();
    ASSERT_NE(prov, nullptr);
    EXPECT_EQ(prov->conservationViolations(), 0u);
    EXPECT_EQ(prov->openSpans(), 0u);
    EXPECT_EQ(prov->total().packets, 0u);
    EXPECT_EQ(prov->total().totalCycles, 0u);
    EXPECT_TRUE(prov->byFlow().empty());
}

} // namespace
} // namespace nox
