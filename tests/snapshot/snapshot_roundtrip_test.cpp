/**
 * @file
 * Checkpoint/resume equivalence: a run snapshotted mid-flight and
 * restored into a freshly built network must finish with NetworkStats
 * (and provenance aggregates) bit-identical to the uninterrupted run.
 *
 * The matrix covers every router architecture, every scheduling
 * kernel, and the soft-, hard- and churn-fault regimes — including a
 * checkpoint taken *after* a fail-stop kill, which exercises the
 * kill-list replay + table-rebuild path of Network::restore, and a
 * mid-churn checkpoint (dead entities still pending their heal, E2E
 * transport window non-empty) which exercises the heal-then-rekill
 * replay plus transport/TRNS restore. A file-layer case round-trips
 * through writeSnapshotFileAtomic to prove the on-disk rotation chain
 * restores just as faithfully.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "obs/digest.hpp"
#include "routers/factory.hpp"
#include "snapshot/snapshot.hpp"
#include "support/kernel_lockstep.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kWarmup = 300;
constexpr Cycle kMeasure = 900;
constexpr Cycle kDrainLimit = 20000;
constexpr Cycle kMid = 600; ///< checkpoint cycle (mid-measurement)
constexpr std::uint64_t kSeed = 0x5EED5;

enum class Regime { Clean, Soft, Hard, Churn };

FaultParams
faultsFor(Regime regime)
{
    FaultParams faults;
    switch (regime) {
    case Regime::Clean:
        break;
    case Regime::Soft:
        faults.enabled = true;
        faults.bitflipRate = 0.002;
        faults.dropRate = 0.001;
        faults.creditLossRate = 0.001;
        faults.seed = 0xD15EA5E;
        break;
    case Regime::Hard:
        faults.enabled = true;
        faults.hardLinkFaults = 3;
        faults.hardRouterFaults = 1;
        faults.hardFaultCycle = 750;
        faults.seed = 0xD15EA5E;
        break;
    case Regime::Churn:
        // One kill+heal wave timed so kMid checkpoints mid-churn:
        // kill at 400, heal at 700, checkpoint at 600 — the image
        // carries dead entities, a pending heal and a live E2E
        // transport window with armed timeouts.
        faults.enabled = true;
        faults.e2eTransport = true;
        faults.e2eTimeout = 150;
        faults.churnWaves = 1;
        faults.churnStart = 400;
        faults.churnPeriod = 1000;
        faults.churnHealAfter = 300;
        faults.churnLinks = 2;
        faults.churnRouters = 1;
        faults.seed = 0xD15EA5E;
        break;
    }
    return faults;
}

std::unique_ptr<Network>
buildNetwork(RouterArch arch, SchedulingMode mode,
             const FaultParams &faults = {}, int vc_count = 1,
             const ObsParams &obs = {})
{
    NetworkParams params;
    params.width = 6;
    params.height = 6;
    params.schedulingMode = mode;
    params.faults = faults;
    params.router.vcCount = vc_count;
    params.obs = obs;
    auto net = makeNetwork(params, arch);

    static const Mesh mesh(6, 6);
    static const DestinationPattern pattern(
        PatternKind::UniformRandom, mesh, 0.2);
    Rng seeder(kSeed);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, 0.06, 3, seeder.next()));
    }
    net->setMeasurementWindow(kWarmup, kWarmup + kMeasure);
    return net;
}

/** Finish @p net from wherever it is and return its final stats. */
NetworkStats
finishRun(Network &net)
{
    const Cycle end = kWarmup + kMeasure;
    if (net.now() < end)
        net.run(end - net.now());
    EXPECT_TRUE(net.drain(kDrainLimit))
        << net.lastDrainReport().summary();
    return net.stats();
}

/**
 * Snapshot @p make()'s network at @p mid, push the image through the
 * full file encoding (frame + CRC) in memory, restore into a second
 * freshly built network, and return that network finished to
 * completion.
 */
template <typename MakeFn>
NetworkStats
roundtripAt(Cycle mid, MakeFn make,
            std::unique_ptr<Network> *keep = nullptr)
{
    auto donor = make();
    donor->run(mid);
    snap::SnapshotFile image = snap::captureNetwork(*donor, "test");
    const std::vector<std::uint8_t> bytes =
        snap::encodeSnapshotFile(image);
    const snap::SnapshotFile decoded =
        snap::decodeSnapshotFile(bytes.data(), bytes.size());

    auto resumed = make();
    const snap::SnapshotMeta meta =
        snap::restoreNetwork(*resumed, decoded);
    EXPECT_EQ(meta.cycle, mid);
    EXPECT_EQ(resumed->now(), mid);
    // The restored network must already agree with the donor.
    EXPECT_TRUE(identicalStats(donor->stats(), resumed->stats()));

    const NetworkStats stats = finishRun(*resumed);
    if (keep)
        *keep = std::move(resumed);
    return stats;
}

using RoundtripParam =
    std::tuple<RouterArch, SchedulingMode, Regime>;

class SnapshotRoundtrip
    : public ::testing::TestWithParam<RoundtripParam>
{
};

TEST_P(SnapshotRoundtrip, ResumedRunBitIdentical)
{
    const auto [arch, mode, regime] = GetParam();
    const FaultParams faults = faultsFor(regime);
    const auto make = [&] { return buildNetwork(arch, mode, faults); };

    auto reference = make();
    const NetworkStats ref = finishRun(*reference);
    const NetworkStats resumed = roundtripAt(kMid, make);

    EXPECT_TRUE(identicalStats(ref, resumed))
        << archName(arch) << "/" << schedulingModeName(mode)
        << ": resumed run diverged from the uninterrupted run";
}

TEST_P(SnapshotRoundtrip, DigestInvariantUnderRestore)
{
    // digest(restore(capture(net))) == digest(net): the digest reads
    // the same canonical bytes the snapshot writes, so a restore that
    // loses any digested state — or a digest that hashes anything a
    // snapshot does not faithfully carry — breaks this immediately,
    // component by component. Then both nets step in lockstep and
    // must keep agreeing: restore-then-run equals run.
    const auto [arch, mode, regime] = GetParam();
    const FaultParams faults = faultsFor(regime);
    const auto make = [&] { return buildNetwork(arch, mode, faults); };

    auto donor = make();
    donor->run(kMid);
    const DigestStride before = donor->computeDigestStride();
    EXPECT_EQ(before.cycle, kMid);
    EXPECT_NE(before.fold(), 0u);

    const std::vector<std::uint8_t> bytes = snap::encodeSnapshotFile(
        snap::captureNetwork(*donor, "test"));
    auto restored = make();
    snap::restoreNetwork(
        *restored, snap::decodeSnapshotFile(bytes.data(), bytes.size()));
    const DigestStride after = restored->computeDigestStride();
    EXPECT_EQ(before, after)
        << archName(arch) << "/" << schedulingModeName(mode)
        << ": restore changed digested state in "
        << ::testing::PrintToString(
               divergentComponents(before, after));

    snap::Writer scratchA, scratchB;
    for (int i = 0; i < 32; ++i) {
        donor->step();
        restored->step();
        const DigestStride a = donor->computeDigestStride(scratchA);
        const DigestStride b =
            restored->computeDigestStride(scratchB);
        ASSERT_EQ(a, b)
            << archName(arch) << "/" << schedulingModeName(mode)
            << ": donor and restored net diverged " << (i + 1)
            << " cycles after restore in "
            << ::testing::PrintToString(divergentComponents(a, b));
    }
}

INSTANTIATE_TEST_SUITE_P(
    ArchesKernelsRegimes, SnapshotRoundtrip,
    ::testing::Combine(
        ::testing::Values(RouterArch::NonSpeculative,
                          RouterArch::SpecFast,
                          RouterArch::SpecAccurate, RouterArch::Nox),
        ::testing::Values(SchedulingMode::AlwaysTick,
                          SchedulingMode::ActivityDriven),
        ::testing::Values(Regime::Clean, Regime::Soft, Regime::Hard,
                          Regime::Churn)),
    [](const ::testing::TestParamInfo<RoundtripParam> &info) {
        // No structured bindings here: the comma list inside their
        // square brackets would split the macro's arguments.
        const Regime regime = std::get<2>(info.param);
        std::string name =
            std::string(archName(std::get<0>(info.param))) + "_" +
            schedulingModeName(std::get<1>(info.param)) + "_" +
            (regime == Regime::Clean  ? "clean"
             : regime == Regime::Soft ? "soft"
             : regime == Regime::Hard ? "hard"
                                      : "churn");
        std::erase_if(name, [](char c) {
            return c != '_' &&
                   !std::isalnum(static_cast<unsigned char>(c));
        });
        return name;
    });

TEST(SnapshotRoundtripExtra, CheckpointAfterHardKillReplaysKills)
{
    // A snapshot taken after the fail-stop kills fired must replay
    // the dead routers/links into the fresh network (one table
    // rebuild) and still finish bit-identically.
    const FaultParams faults = faultsFor(Regime::Hard);
    const auto make = [&] {
        return buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick, faults);
    };
    auto reference = make();
    const NetworkStats ref = finishRun(*reference);
    ASSERT_GT(ref.faults.hardRouterFaults, 0u);

    const NetworkStats resumed = roundtripAt(1000, make);
    EXPECT_TRUE(identicalStats(ref, resumed))
        << "post-kill checkpoint diverged";
}

TEST(SnapshotRoundtripExtra, MidChurnCheckpointIsGenuinelyMidChurn)
{
    // Guard the matrix's churn regime against silently degenerating:
    // at the checkpoint cycle the donor must actually hold dead
    // entities (kill applied, heal still pending) and a non-empty
    // E2E transport window, or the regime isn't testing what the
    // header claims. Then prove that exact state round-trips.
    const FaultParams faults = faultsFor(Regime::Churn);
    const auto make = [&] {
        return buildNetwork(RouterArch::Nox,
                            SchedulingMode::ActivityDriven, faults);
    };

    // The probe runs in per-cycle digest lockstep with an always-tick
    // twin, so the churn regime also checks the quiescence contracts
    // across kills, heals and transport retransmissions.
    auto probe = make();
    auto twin = buildNetwork(RouterArch::Nox,
                             SchedulingMode::AlwaysTick, faults);
    const auto run = test::KernelLockstep(*twin, *probe).run(kMid);
    ASSERT_FALSE(run) << *run;
    EXPECT_GT(probe->faultMap().deadRouterCount() +
                  probe->faultMap().explicitDeadLinkCount(),
              0)
        << "churn regime no longer has dead entities at kMid";
    ASSERT_NE(probe->transport(), nullptr);
    EXPECT_GT(probe->transport()->windowSize(), 0u)
        << "churn regime has an empty transport window at kMid";

    auto reference = make();
    const NetworkStats ref = finishRun(*reference);
    ASSERT_GT(ref.faults.linkHeals + ref.faults.routerHeals, 0u);

    std::unique_ptr<Network> kept;
    const NetworkStats resumed = roundtripAt(kMid, make, &kept);
    EXPECT_TRUE(identicalStats(ref, resumed))
        << "mid-churn resumed run diverged";
    // Post-drain the resumed network's window must be empty again.
    EXPECT_EQ(kept->transport()->windowSize(), 0u);
}

TEST(SnapshotRoundtripExtra, VirtualChannelRouterRoundtrips)
{
    const auto make = [&] {
        return buildNetwork(RouterArch::NonSpeculative,
                            SchedulingMode::AlwaysTick, {}, 2);
    };
    auto reference = make();
    const NetworkStats ref = finishRun(*reference);
    const NetworkStats resumed = roundtripAt(kMid, make);
    EXPECT_TRUE(identicalStats(ref, resumed))
        << "VC router resumed run diverged";
}

TEST(SnapshotRoundtripExtra, ObservabilityStateRoundtrips)
{
    // Tracing, metrics and provenance all enabled: the resumed run's
    // provenance aggregate (the breakdown noxsim prints) must match
    // the uninterrupted run's exactly.
    ObsParams obs;
    obs.trace.enabled = true;
    obs.trace.capacity = 1u << 12;
    obs.trace.flightPath = ""; // no file writes from a unit test
    obs.metrics.enabled = true;
    obs.metrics.interval = 128;
    obs.metrics.heatmap = false;
    obs.prov.enabled = true;
    const auto make = [&] {
        return buildNetwork(RouterArch::Nox,
                            SchedulingMode::AlwaysTick,
                            faultsFor(Regime::Soft), 1, obs);
    };

    auto reference = make();
    const NetworkStats ref = finishRun(*reference);
    const LatencyBreakdown refB = reference->provenance()->total();

    std::unique_ptr<Network> kept;
    const NetworkStats resumed = roundtripAt(kMid, make, &kept);
    EXPECT_TRUE(identicalStats(ref, resumed))
        << "obs-enabled resumed run diverged";

    const LatencyBreakdown &b = kept->provenance()->total();
    EXPECT_EQ(refB.packets, b.packets);
    EXPECT_EQ(refB.totalCycles, b.totalCycles);
    for (std::size_t i = 0; i < kNumLatencyComponents; ++i)
        EXPECT_EQ(refB.comp[i], b.comp[i])
            << "provenance component " << i << " diverged";
    EXPECT_EQ(kept->provenance()->conservationViolations(), 0u);
    EXPECT_EQ(kept->provenance()->openSpans(), 0u);
}

TEST(SnapshotRoundtripExtra, FileLayerRotatesAndRestores)
{
    namespace fs = std::filesystem;
    // Per-process directory: concurrent test processes must not
    // share (and delete) each other's checkpoint files.
    const fs::path dir =
        fs::temp_directory_path() /
        ("nox-snapshot-FileLayerRotatesAndRestores-" +
         std::to_string(::getpid()));
    fs::create_directories(dir);
    const std::string path = (dir / "ckpt.snap").string();
    std::remove(path.c_str());
    std::remove((path + ".1").c_str());

    const auto make = [&] {
        return buildNetwork(RouterArch::Nox,
                            SchedulingMode::ActivityDriven);
    };
    auto reference = make();
    const NetworkStats ref = finishRun(*reference);

    // Two checkpoints: the older one must rotate to "<path>.1".
    auto donor = make();
    donor->run(kMid / 2);
    snap::writeSnapshotFileAtomic(
        path,
        snap::encodeSnapshotFile(snap::captureNetwork(*donor, "test")),
        2);
    donor->run(kMid - donor->now());
    snap::writeSnapshotFileAtomic(
        path,
        snap::encodeSnapshotFile(snap::captureNetwork(*donor, "test")),
        2);
    EXPECT_TRUE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".1"));

    auto resumed = make();
    const snap::SnapshotMeta meta =
        snap::restoreNetwork(*resumed, snap::loadSnapshotFile(path));
    EXPECT_EQ(meta.cycle, kMid);
    EXPECT_EQ(meta.tool, "test");
    EXPECT_TRUE(identicalStats(ref, finishRun(*resumed)))
        << "file-layer resumed run diverged";

    // The rotated predecessor is an equally valid resume point.
    auto older = make();
    const snap::SnapshotMeta ometa = snap::restoreNetwork(
        *older, snap::loadSnapshotFile(path + ".1"));
    EXPECT_EQ(ometa.cycle, kMid / 2);
    EXPECT_TRUE(identicalStats(ref, finishRun(*older)))
        << "rotated-snapshot resumed run diverged";

    fs::remove_all(dir);
}

} // namespace
} // namespace nox
