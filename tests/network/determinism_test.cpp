/**
 * @file
 * Seeded determinism and scheduling-kernel equivalence.
 *
 * The guardrail for the activity-driven kernel: for every router
 * architecture and a representative pattern set, a seeded fig-8-style
 * run must produce bit-identical NetworkStats (a) across repeated
 * runs and (b) across scheduling kernels stepped in per-cycle digest
 * lockstep (tests/support/kernel_lockstep.hpp), which names the first
 * component whose retirement broke its quiescence contract.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "routers/nox_router.hpp"
#include "support/kernel_lockstep.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kWarmup = 300;
constexpr Cycle kMeasure = 900;
constexpr Cycle kDrainLimit = 20000;
constexpr std::uint64_t kSeed = 0xF1683;

std::unique_ptr<Network>
buildNetwork(RouterArch arch, PatternKind pattern, SchedulingMode mode,
             double load, int packet_flits,
             const FaultParams &faults = {},
             NetworkParams params = {})
{
    params.width = 8;
    params.height = 8;
    params.schedulingMode = mode;
    params.faults = faults;
    auto net = makeNetwork(params, arch);

    // Sources are seeded per node from one seeder, as runSynthetic
    // does, so every kernel sees the same injection sequence.
    static const Mesh mesh(8, 8);
    static const DestinationPattern uniform(PatternKind::UniformRandom,
                                            mesh, 0.2);
    static const DestinationPattern transpose(PatternKind::Transpose,
                                              mesh, 0.2);
    const DestinationPattern &pat =
        pattern == PatternKind::Transpose ? transpose : uniform;
    Rng seeder(kSeed);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pat, load, packet_flits, seeder.next()));
    }
    net->setMeasurementWindow(kWarmup, kWarmup + kMeasure);
    return net;
}

NetworkStats
runOnce(RouterArch arch, PatternKind pattern, SchedulingMode mode,
        double load = 0.05, int packet_flits = 1)
{
    auto net = buildNetwork(arch, pattern, mode, load, packet_flits);
    net->run(kWarmup + kMeasure);
    EXPECT_TRUE(net->drain(kDrainLimit));
    return net->stats();
}

struct Case
{
    RouterArch arch;
    PatternKind pattern;
};

class SchedulingEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(SchedulingEquivalence, RepeatedRunsBitIdentical)
{
    const auto [arch, pattern] = GetParam();
    for (SchedulingMode mode : {SchedulingMode::AlwaysTick,
                                SchedulingMode::ActivityDriven}) {
        const NetworkStats a = runOnce(arch, pattern, mode);
        const NetworkStats b = runOnce(arch, pattern, mode);
        EXPECT_TRUE(identicalStats(a, b))
            << archName(arch) << "/" << schedulingModeName(mode)
            << " diverged between identical seeded runs";
    }
}

TEST_P(SchedulingEquivalence, KernelsBitIdenticalInLockstep)
{
    const auto [arch, pattern] = GetParam();
    auto tick = buildNetwork(arch, pattern,
                             SchedulingMode::AlwaysTick, 0.05, 1);
    auto activity = buildNetwork(
        arch, pattern, SchedulingMode::ActivityDriven, 0.05, 1);

    // Lockstep: both kernels advance one cycle at a time and must
    // agree on every statistic — and on the full canonical state
    // digest, component by component — at every cycle boundary. The
    // digest check is strictly stronger than identicalStats: it
    // covers buffers, arbiter pointers, credits and source RNGs, so
    // a kernel bug that corrupts state without (yet) moving a
    // counter is caught at the first corrupt cycle.
    test::KernelLockstep lockstep(*tick, *activity);
    const auto run = lockstep.run(kWarmup + kMeasure);
    ASSERT_FALSE(run) << archName(arch) << ": " << *run;
    const auto drained = lockstep.drain(kDrainLimit);
    ASSERT_FALSE(drained) << archName(arch) << ": " << *drained;
    EXPECT_TRUE(activity->lastDrainReport().drained);
}

TEST_P(SchedulingEquivalence, MultiFlitKernelsBitIdentical)
{
    // Multi-flit packets exercise the wormhole locks, NoX aborts and
    // the decode registers — the state the quiescence contract must
    // cover honestly.
    const auto [arch, pattern] = GetParam();
    const NetworkStats a = runOnce(arch, pattern,
                                   SchedulingMode::AlwaysTick,
                                   0.08, 5);
    const NetworkStats b = runOnce(arch, pattern,
                                   SchedulingMode::ActivityDriven,
                                   0.08, 5);
    EXPECT_TRUE(identicalStats(a, b))
        << archName(arch) << ": multi-flit kernels diverged";
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndPatterns, SchedulingEquivalence,
    ::testing::Values(
        Case{RouterArch::NonSpeculative, PatternKind::UniformRandom},
        Case{RouterArch::SpecFast, PatternKind::UniformRandom},
        Case{RouterArch::SpecAccurate, PatternKind::UniformRandom},
        Case{RouterArch::Nox, PatternKind::UniformRandom},
        Case{RouterArch::NonSpeculative, PatternKind::Transpose},
        Case{RouterArch::SpecFast, PatternKind::Transpose},
        Case{RouterArch::SpecAccurate, PatternKind::Transpose},
        Case{RouterArch::Nox, PatternKind::Transpose}),
    [](const ::testing::TestParamInfo<Case> &info) {
        // archName() values contain '-', which gtest names reject.
        std::string name = std::string(archName(info.param.arch)) +
                           "_" + patternName(info.param.pattern);
        std::erase_if(name, [](char c) {
            return c != '_' && !std::isalnum(
                                   static_cast<unsigned char>(c));
        });
        return name;
    });

FaultParams
softFaults()
{
    FaultParams faults;
    faults.enabled = true;
    faults.bitflipRate = 0.002;
    faults.dropRate = 0.001;
    faults.creditLossRate = 0.001;
    faults.seed = 0xD15EA5E;
    return faults;
}

FaultParams
hardFaults()
{
    FaultParams faults;
    faults.enabled = true;
    faults.hardLinkFaults = 3;
    faults.hardRouterFaults = 1;
    faults.hardFaultCycle = kWarmup + kMeasure / 2;
    faults.seed = 0xD15EA5E;
    return faults;
}

NetworkStats
runOnceFaulty(RouterArch arch, SchedulingMode mode,
              const FaultParams &faults)
{
    auto net = buildNetwork(arch, PatternKind::UniformRandom, mode,
                            0.05, 3, faults);
    net->run(kWarmup + kMeasure);
    EXPECT_TRUE(net->drain(kDrainLimit))
        << net->lastDrainReport().summary();
    return net->stats();
}

/** Run and drain an activity network against its always-tick twin in
 *  per-cycle digest lockstep; returns the activity network's stats. */
NetworkStats
runLockstepFaulty(RouterArch arch, const FaultParams &faults)
{
    auto tick = buildNetwork(arch, PatternKind::UniformRandom,
                             SchedulingMode::AlwaysTick, 0.05, 3, faults);
    auto activity =
        buildNetwork(arch, PatternKind::UniformRandom,
                     SchedulingMode::ActivityDriven, 0.05, 3, faults);
    test::KernelLockstep lockstep(*tick, *activity);
    const auto run = lockstep.run(kWarmup + kMeasure);
    EXPECT_FALSE(run) << archName(arch) << ": " << *run;
    if (!run) {
        const auto drained = lockstep.drain(kDrainLimit);
        EXPECT_FALSE(drained) << archName(arch) << ": " << *drained;
        EXPECT_TRUE(activity->lastDrainReport().drained)
            << activity->lastDrainReport().summary();
    }
    return activity->stats();
}

class FaultDeterminism : public ::testing::TestWithParam<RouterArch>
{
};

TEST_P(FaultDeterminism, SameFaultSeedBitIdenticalAcrossKernels)
{
    // The fault schedule is keyed by event identity, not draw order,
    // so the same seed must yield bit-identical NetworkStats —
    // including every fault counter — whichever scheduling kernel
    // evaluates the mesh, and the two kernels must agree on the full
    // state digest at every cycle while faults and recovery
    // (retries, watchdog resyncs) are in flight.
    const RouterArch arch = GetParam();
    const NetworkStats always =
        runOnceFaulty(arch, SchedulingMode::AlwaysTick, softFaults());
    const NetworkStats repeat =
        runOnceFaulty(arch, SchedulingMode::AlwaysTick, softFaults());
    const NetworkStats activity = runLockstepFaulty(arch, softFaults());

    EXPECT_GT(always.faults.faultsInjected, 0u);
    EXPECT_TRUE(identicalStats(always, repeat))
        << archName(arch) << ": faulty runs diverged across repeats";
    EXPECT_TRUE(identicalStats(always, activity))
        << archName(arch)
        << ": fault schedule diverged under activity scheduling";
}

TEST_P(FaultDeterminism, HardFaultScheduleBitIdenticalAcrossKernels)
{
    // Fail-stop kills are planned from the fault seed and applied at
    // a fixed cycle, so a mid-run degradation — dead router, dead
    // links, write-offs, table rebuild, purge — must replay bit-
    // identically under every scheduling kernel, in per-cycle digest
    // lockstep throughout.
    const RouterArch arch = GetParam();
    const NetworkStats always =
        runOnceFaulty(arch, SchedulingMode::AlwaysTick, hardFaults());
    const NetworkStats repeat =
        runOnceFaulty(arch, SchedulingMode::AlwaysTick, hardFaults());
    const NetworkStats activity = runLockstepFaulty(arch, hardFaults());

    EXPECT_EQ(always.faults.hardLinkFaults, 3u);
    EXPECT_EQ(always.faults.hardRouterFaults, 1u);
    EXPECT_GE(always.faults.tableRebuilds, 1u);
    EXPECT_EQ(always.packetsEjected + always.faults.packetsLostHard,
              always.packetsInjected);
    EXPECT_TRUE(identicalStats(always, repeat))
        << archName(arch)
        << ": hard-fault runs diverged across repeats";
    EXPECT_TRUE(identicalStats(always, activity))
        << archName(arch)
        << ": hard-fault degradation diverged under activity "
           "scheduling";
}

INSTANTIATE_TEST_SUITE_P(
    Arches, FaultDeterminism,
    ::testing::Values(RouterArch::NonSpeculative, RouterArch::SpecFast,
                      RouterArch::SpecAccurate, RouterArch::Nox),
    [](const ::testing::TestParamInfo<RouterArch> &info) {
        std::string n = archName(info.param);
        std::erase_if(n, [](char c) {
            return !std::isalnum(static_cast<unsigned char>(c));
        });
        return n;
    });

TEST(ArenaGrowthPath, CollisionSpillBitIdenticalAcrossKernels)
{
    // High single-flit NoX load drives collision chains past the
    // PartsVec inline slot, so wire values spill their parts to a
    // heap vector mid-run. The spill path must be invisible to
    // simulation results: stats stay bit-identical across kernels.
    // (That drained and written-off values free their spills is
    // LeakSanitizer's check in the sanitized build.)
    const auto run = [](SchedulingMode mode) {
        auto net = buildNetwork(RouterArch::Nox,
                                PatternKind::UniformRandom, mode, 0.30,
                                1);
        net->run(kWarmup + kMeasure);
        EXPECT_TRUE(net->drain(kDrainLimit));
        std::uint64_t encoded = 0; // sends of 2 or more parts
        for (NodeId r = 0; r < net->numRouters(); ++r) {
            const auto &nox =
                static_cast<const NoxRouter &>(net->router(r));
            for (std::size_t k = 2;
                 k < nox.noxStats().collisionsBySize.size(); ++k)
                encoded += nox.noxStats().collisionsBySize[k];
        }
        EXPECT_GT(encoded, 0u)
            << "workload never encoded a chain: the spill path never ran";
        return net->stats();
    };
    EXPECT_TRUE(identicalStats(run(SchedulingMode::AlwaysTick),
                               run(SchedulingMode::ActivityDriven)))
        << "kernels diverged on the collision-spill path";
}

TEST(KernelLockstep, NamesSeededPerturbation)
{
    // The lockstep helper's own contract: a twin built with a
    // deliberate arbiter perturbation must be reported at exactly the
    // perturbed cycle, in exactly the perturbed router.
    constexpr Cycle kPerturbCycle = 437;
    constexpr NodeId kPerturbRouter = 21;
    NetworkParams perturbed;
    perturbed.debugPerturbCycle = kPerturbCycle;
    perturbed.debugPerturbRouter = kPerturbRouter;
    auto tick = buildNetwork(RouterArch::Nox, PatternKind::UniformRandom,
                             SchedulingMode::AlwaysTick, 0.05, 1, {},
                             perturbed);
    auto activity =
        buildNetwork(RouterArch::Nox, PatternKind::UniformRandom,
                     SchedulingMode::ActivityDriven, 0.05, 1);

    test::KernelLockstep lockstep(*tick, *activity);
    const auto d = lockstep.run(kWarmup + kMeasure);
    ASSERT_TRUE(d) << "the perturbation went unnoticed";
    EXPECT_EQ(d->cycle, kPerturbCycle) << *d;
    EXPECT_EQ(d->components,
              std::vector<std::string>{"router:" +
                                       std::to_string(kPerturbRouter)})
        << *d;
}

TEST(ActivityKernel, IdleNetworkRetiresEverything)
{
    NetworkParams params;
    params.width = 8;
    params.height = 8;
    params.schedulingMode = SchedulingMode::ActivityDriven;
    auto net = makeNetwork(params, RouterArch::Nox);

    // With no traffic, a few settle cycles retire the whole mesh.
    net->run(4);
    EXPECT_EQ(net->activeRouters(), 0);
    EXPECT_EQ(net->activeNics(), 0);

    // One packet re-arms only the touched corridor, and the network
    // goes fully idle again after it drains.
    net->injectPacket(0, 63, 1, net->now(), TrafficClass::Synthetic);
    EXPECT_GT(net->activeNics(), 0);
    EXPECT_TRUE(net->drain(200));
    net->run(4);
    EXPECT_EQ(net->activeRouters(), 0);
    EXPECT_EQ(net->activeNics(), 0);
}

TEST(ActivityKernel, GatedRoutersAccrueNoClockEnergy)
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.schedulingMode = SchedulingMode::ActivityDriven;
    auto net = makeNetwork(params, RouterArch::Nox);

    net->run(100);
    // After the initial settle cycles no router is clocked.
    const std::uint64_t cycles = net->totalEnergyEvents().cycles;
    net->run(100);
    EXPECT_EQ(net->totalEnergyEvents().cycles, cycles);
}

} // namespace
} // namespace nox
