/**
 * @file
 * Pinned trajectories: small seeded runs whose outcome is compared
 * against constants, not against another run. The kernel-equivalence
 * and observer-effect suites prove that two configurations of the
 * *same* code agree; they cannot see a refactor that changes a
 * decision identically in both. These constants can.
 *
 * Every router architecture (plus the two-VC exploration router) runs
 * a 4x4 mesh of mixed single- and multi-flit request/reply traffic in
 * five regimes chosen to reach paths the throughput benchmark never
 * takes:
 *   - plain: fault-free, observers off;
 *   - provenance: latency provenance on under recoverable soft faults,
 *     so every per-flit charge loop runs, including the link-retry
 *     (Retransmit) charges, with the trace ring (small enough to wrap)
 *     and the metrics sampler on, so observer state is in the image
 *     pinned below;
 *   - router kill: a router dies mid-run with provenance on, forcing a
 *     routing-table rebuild, after which every architecture abandons
 *     wormhole locks in degraded mode (NonSpec and NoX also bill
 *     Reroute charges to the waiting flits);
 *   - transport: the end-to-end transport under soft faults and one
 *     kill+heal churn wave inside the run, with a timeout short
 *     enough to retransmit and suppress duplicates before the drain.
 *     Besides the final fold it pins the fold at an in-run cycle where
 *     every architecture has a busy window and out-of-order entries in
 *     its per-flow duplicate filters, so the transport's whole
 *     serialized state is pinned byte for byte.
 *   - storm: a retransmission storm at 4x4 scale, a 40-cycle
 *     transport timeout under drops alone, with the wave's heal 8
 *     cycles after its kill: the heal re-wires links whose far inputs
 *     still hold flits, the path whose credit bookkeeping once
 *     overflowed a Spec-Fast input FIFO (crediting the full depth
 *     there panics this row; a 200-cycle outage drains those inputs
 *     first and would not).
 *   - library: the traffic library's own per-node sources instead of
 *     the mixed stream — Bernoulli sources at a low rate (gaps of
 *     ~100 cycles) on even nodes and self-similar Pareto ON/OFF
 *     sources on odd ones — with a drain() called mid-run while they
 *     are live, so every source pauses and resumes. Besides the final
 *     fold it pins the fold at kMidCycle, after the resume, so each
 *     source's stream position is pinned.
 *
 * Every case runs under both scheduling kernels. Each run drains and
 * must reproduce the recorded final state-digest fold, packet counts,
 * flit-hops, latency sum and per-component provenance totals exactly,
 * whichever kernel ran it. Clock energy is the one output that
 * depends on the kernel (the digest leaves it out: gated routers
 * accrue none), so each kernel has its own recorded network-wide
 * clock total.
 *
 * The folds cover only the Digest scope, and a round trip cannot see
 * a format change made identically to the writer and the reader. So
 * every case also pins the whole Snapshot-scope image — the bytes a
 * checkpoint stores — by length and FNV-1a-64 at kMidCycle, one pair
 * per kernel (the image holds energy counters and kernel
 * bookkeeping). A mismatch prints the whole measured row in table
 * syntax; re-record only for a change that is *meant* to alter
 * simulated behaviour or the snapshot format, and say so in the
 * change description.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "obs/digest.hpp"
#include "obs/provenance.hpp"
#include "routers/factory.hpp"
#include "snapshot/io.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/pareto_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr int kSide = 4;
constexpr Cycle kRun = 600;
constexpr Cycle kKillCycle = 150;
constexpr Cycle kHealAfter = 200;
constexpr Cycle kE2eTimeout = 120;
constexpr Cycle kStormTimeout = 40;
constexpr Cycle kStormHealAfter = 8;
constexpr Cycle kMidCycle = 400; ///< in-run fold and image cycle
constexpr Cycle kDrainLimit = 200000;
constexpr double kPacketRate = 0.16; ///< packets per node per cycle
constexpr Cycle kLibraryDrainAt = 250; ///< library regime's mid-run drain

/** Every node injects single-flit or 4-flit packets to uniform random
 *  destinations, alternating request and reply class at random (reply
 *  packets ride VC 1 on a two-VC router). One object drives the whole
 *  mesh from one seeded stream. */
class MixedSource : public TrafficSource
{
  public:
    MixedSource(int nodes, std::uint64_t seed)
        : nodes_(nodes), rng_(seed)
    {
    }

    Cycle
    tick(Cycle now, PacketInjector &inj) override
    {
        for (NodeId n = 0; n < nodes_; ++n) {
            if (!rng_.nextBernoulli(kPacketRate))
                continue;
            auto dst = static_cast<NodeId>(
                rng_.nextBounded(static_cast<std::uint64_t>(nodes_ - 1)));
            if (dst >= n)
                ++dst;
            const int flits = rng_.nextBernoulli(0.5) ? 1 : 4;
            const TrafficClass cls = rng_.nextBernoulli(0.5)
                                         ? TrafficClass::Request
                                         : TrafficClass::Reply;
            inj.injectPacket(n, dst, flits, now, cls);
        }
        return now + 1;
    }

  private:
    int nodes_;
    Rng rng_;
};

enum class Regime {
    Plain,
    Provenance,
    RouterKill,
    Transport,
    Storm,
    Library
};

/** The recorded outcome of one run. */
struct Pinned
{
    std::uint64_t fold = 0;
    std::uint64_t injected = 0;
    std::uint64_t ejected = 0;
    std::uint64_t flitHops = 0;
    double latencySum = 0.0;
    /** Provenance total per LatencyComponent (all zero when off). */
    std::array<std::uint64_t, kNumLatencyComponents> prov{};
    /** Network-wide clock total, totalEnergyEvents().cycles, under the
     *  activity and the always-tick kernel. */
    std::uint64_t clockActivity = 0;
    std::uint64_t clockAlwaysTick = 0;
    /** Digest fold at kMidCycle (transport, storm and library, else
     *  0). */
    std::uint64_t midFold = 0;
    /** Length and FNV-1a-64 of the Snapshot-scope image at kMidCycle
     *  under the activity and the always-tick kernel. */
    std::uint64_t imageBytesActivity = 0;
    std::uint64_t imageHashActivity = 0;
    std::uint64_t imageBytesAlwaysTick = 0;
    std::uint64_t imageHashAlwaysTick = 0;
};

/** FNV-1a, 64-bit. */
std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

struct Case
{
    const char *name;
    RouterArch arch;
    int vcCount;
    Regime regime;
    Pinned expected;
};

/** Run @p c under @p mode; the clock total and the image land in
 *  @p mode's slots. */
Pinned
runCase(const Case &c, SchedulingMode mode)
{
    NetworkParams params;
    params.width = kSide;
    params.height = kSide;
    params.schedulingMode = mode;
    params.router.vcCount = c.vcCount;
    const bool library = c.regime == Regime::Library;
    if (c.regime != Regime::Plain && !library) {
        params.obs.prov.enabled = true;
        params.faults.enabled = true;
        params.faults.seed = 0x5EED5;
    }
    if (c.regime == Regime::Provenance ||
        c.regime == Regime::Transport) {
        params.faults.bitflipRate = 0.01;
        params.faults.dropRate = 0.005;
    }
    if (c.regime == Regime::Provenance) {
        params.obs.trace.enabled = true;
        params.obs.trace.capacity = 4096;
        params.obs.trace.flightPath.clear();
        params.obs.metrics.enabled = true;
        params.obs.metrics.heatmap = false;
    }
    if (c.regime == Regime::RouterKill) {
        params.faults.hardRouterFaults = 1;
        params.faults.hardFaultCycle = kKillCycle;
    }
    const bool transport =
        c.regime == Regime::Transport || c.regime == Regime::Storm;
    if (transport) {
        params.faults.e2eTransport = true;
        params.faults.e2eTimeout = kE2eTimeout;
        params.faults.churnWaves = 1;
        params.faults.churnStart = kKillCycle;
        params.faults.churnHealAfter = kHealAfter;
    }
    if (c.regime == Regime::Storm) {
        params.faults.e2eTimeout = kStormTimeout;
        params.faults.churnHealAfter = kStormHealAfter;
        params.faults.dropRate = 0.001;
    }
    const Mesh mesh(kSide, kSide);
    const DestinationPattern uniform(PatternKind::UniformRandom, mesh);
    auto net = makeNetwork(params, c.arch);
    if (library) {
        Rng seeder(0x7A1C0DE);
        for (NodeId n = 0; n < net->numNodes(); ++n) {
            if (n % 2 == 0) {
                net->addSource(std::make_unique<BernoulliSource>(
                    n, uniform, 0.04, 4, seeder.next()));
            } else {
                net->addSource(std::make_unique<ParetoSource>(
                    n, uniform, 0.05, 1, seeder.next()));
            }
        }
    } else {
        net->addSource(std::make_unique<MixedSource>(net->numNodes(),
                                                     0x7A1C0DE));
    }
    Pinned got;
    const bool activity = mode == SchedulingMode::ActivityDriven;
    if (library) {
        // A drain with the sources live pauses them; they resume on
        // exit, well before kMidCycle.
        net->run(kLibraryDrainAt);
        EXPECT_TRUE(net->drain(kDrainLimit)) << c.name;
        EXPECT_GT(net->now(), kLibraryDrainAt) << c.name;
        EXPECT_LT(net->now(), kMidCycle) << c.name;
        net->run(kMidCycle - net->now());
    } else {
        net->run(kMidCycle);
    }
    if (transport || library)
        got.midFold = net->computeDigestStride().fold();
    snap::Writer image;
    net->serialize(image);
    (activity ? got.imageBytesActivity : got.imageBytesAlwaysTick) =
        image.size();
    (activity ? got.imageHashActivity : got.imageHashAlwaysTick) =
        fnv1a64(image.data(), image.size());
    net->run(kRun - net->now());
    net->setSourcesEnabled(false);
    EXPECT_TRUE(net->drain(kDrainLimit))
        << c.name << ": " << net->lastDrainReport().summary();

    const NetworkStats &s = net->stats();
    if (transport) {
        // The regime reaches what it exists for: casualties of the
        // wave retransmit, late copies die at the duplicate filter,
        // the victims heal, and every packet is delivered once (the
        // storm's retry limit abandons some; none is delivered twice).
        EXPECT_GT(s.faults.e2eRetransmits, 0u) << c.name;
        EXPECT_GT(s.faults.dupSuppressed, 0u) << c.name;
        EXPECT_GT(s.faults.linkHeals + s.faults.routerHeals, 0u)
            << c.name;
        EXPECT_EQ(s.packetsEjected + s.faults.deliveryFailures,
                  s.packetsInjected)
            << c.name;
        if (c.regime == Regime::Transport) {
            EXPECT_EQ(s.faults.deliveryFailures, 0u) << c.name;
        }
    }
    const EnergyEvents ev = net->totalEnergyEvents();
    got.fold = net->computeDigestStride().fold();
    got.injected = s.packetsInjected;
    got.ejected = s.packetsEjected;
    got.flitHops = ev.linkFlits + ev.localLinkFlits;
    got.latencySum = s.latency.sum();
    if (const LatencyProvenance *prov = net->provenance())
        got.prov = prov->total().comp;
    (activity ? got.clockActivity : got.clockAlwaysTick) = ev.cycles;
    return got;
}

/** @p p as a row of the table below (for re-recording). */
std::string
row(const Pinned &p)
{
    char buf[512];
    int n = std::snprintf(
        buf, sizeof buf, "{0x%016llxULL, %llu, %llu, %llu, %.17g, {",
        static_cast<unsigned long long>(p.fold),
        static_cast<unsigned long long>(p.injected),
        static_cast<unsigned long long>(p.ejected),
        static_cast<unsigned long long>(p.flitHops), p.latencySum);
    for (std::size_t i = 0; i < p.prov.size(); ++i) {
        n += std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                           "%s%llu", i ? ", " : "",
                           static_cast<unsigned long long>(p.prov[i]));
    }
    std::snprintf(buf + n, sizeof buf - static_cast<std::size_t>(n),
                  "}, %llu, %llu, 0x%016llxULL, %llu, 0x%016llxULL, "
                  "%llu, 0x%016llxULL}",
                  static_cast<unsigned long long>(p.clockActivity),
                  static_cast<unsigned long long>(p.clockAlwaysTick),
                  static_cast<unsigned long long>(p.midFold),
                  static_cast<unsigned long long>(p.imageBytesActivity),
                  static_cast<unsigned long long>(p.imageHashActivity),
                  static_cast<unsigned long long>(p.imageBytesAlwaysTick),
                  static_cast<unsigned long long>(p.imageHashAlwaysTick));
    return buf;
}

/** Expect @p got (one kernel's run) to match @p want on everything
 *  but the clock totals. */
void
expectTrajectory(const Pinned &want, const Pinned &got, const char *kernel)
{
    EXPECT_EQ(got.fold, want.fold) << kernel;
    EXPECT_EQ(got.midFold, want.midFold) << kernel;
    EXPECT_EQ(got.injected, want.injected) << kernel;
    EXPECT_EQ(got.ejected, want.ejected) << kernel;
    EXPECT_EQ(got.flitHops, want.flitHops) << kernel;
    EXPECT_EQ(got.latencySum, want.latencySum) << kernel;
    for (std::size_t i = 0; i < kNumLatencyComponents; ++i) {
        EXPECT_EQ(got.prov[i], want.prov[i])
            << kernel << " "
            << latencyComponentName(static_cast<LatencyComponent>(i));
    }
}

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

class PinnedTrajectory : public ::testing::TestWithParam<Case>
{
};

TEST_P(PinnedTrajectory, MatchesRecordedRun)
{
    const Case &c = GetParam();
    const Pinned &want = c.expected;
    Pinned got = runCase(c, SchedulingMode::ActivityDriven);
    const Pinned ticked = runCase(c, SchedulingMode::AlwaysTick);
    got.clockAlwaysTick = ticked.clockAlwaysTick;
    got.imageBytesAlwaysTick = ticked.imageBytesAlwaysTick;
    got.imageHashAlwaysTick = ticked.imageHashAlwaysTick;
    expectTrajectory(want, got, "activity");
    expectTrajectory(want, ticked, "alwaystick");
    EXPECT_EQ(got.clockActivity, want.clockActivity);
    EXPECT_EQ(got.clockAlwaysTick, want.clockAlwaysTick);
    EXPECT_EQ(got.imageBytesActivity, want.imageBytesActivity);
    EXPECT_EQ(got.imageHashActivity, want.imageHashActivity);
    EXPECT_EQ(got.imageBytesAlwaysTick, want.imageBytesAlwaysTick);
    EXPECT_EQ(got.imageHashAlwaysTick, want.imageHashAlwaysTick);
    if (::testing::Test::HasFailure())
        ADD_FAILURE() << c.name << " measured " << row(got);
    // The regimes really reach the paths they exist for.
    EXPECT_GT(got.ejected, 0u);
    const auto charged = [&](LatencyComponent lc) {
        return got.prov[static_cast<std::size_t>(lc)];
    };
    if (c.regime != Regime::Plain && c.regime != Regime::Library) {
        EXPECT_GT(charged(LatencyComponent::ArbLoss), 0u);
        EXPECT_GT(charged(LatencyComponent::CreditStall), 0u);
    }
    if (c.regime == Regime::Provenance) {
        EXPECT_GT(charged(LatencyComponent::Retransmit), 0u);
    }
    if (c.regime == Regime::RouterKill) {
        EXPECT_LT(got.ejected, got.injected);
    }
}

// Recorded from the reference implementation; see the file comment
// before touching any of these.
const Case kCases[] = {
    {"nonspec_plain", RouterArch::NonSpeculative, 1, Regime::Plain,
     {0xbb207f2109d162a1ULL, 1584, 1584, 18073, 19054,
      {0, 0, 0, 0, 0, 0, 0, 0}, 9447, 9872, 0,
      46809, 0x654de5534483dcf6ULL, 46809, 0x48f1055df28605d6ULL}},
    {"nonspec_provenance", RouterArch::NonSpeculative, 1, Regime::Provenance,
     {0x17cb02a4e62a06b8ULL, 1584, 1584, 18235, 27629.000000000051,
      {8975, 9001, 6629, 1027, 1551, 0, 446, 0}, 9608, 9984, 0,
      226919, 0x3ec2cdd3543d044fULL, 226919, 0xec4bd550de273a3bULL}},
    {"nonspec_router_kill", RouterArch::NonSpeculative, 1, Regime::RouterKill,
     {0xfc7bdcdd728a3efdULL, 1435, 1430, 16382, 65508.000000000036,
      {41725, 8177, 11233, 2523, 1848, 0, 0, 2}, 10512, 12064, 0,
      123063, 0x85da70407ebf2d21ULL, 123063, 0x6029157b4bf6ce03ULL}},
    {"specfast_plain", RouterArch::SpecFast, 1, Regime::Plain,
     {0xb0243bf6b0b915b4ULL, 1584, 1584, 18073, 110427.99999999997,
      {0, 0, 0, 0, 0, 0, 0, 0}, 11911, 12768, 0,
      76843, 0xa1a0396c470b7d3bULL, 76843, 0xf4c90e5c849bc273ULL}},
    {"specfast_provenance", RouterArch::SpecFast, 1, Regime::Provenance,
     {0x825dca75a6ce0bfbULL, 1584, 1584, 18223, 117621.00000000006,
      {83891, 9001, 16801, 2906, 4632, 0, 390, 0}, 12059, 12896, 0,
      300072, 0xadd6630111531a4bULL, 300072, 0xe5444b20263de80eULL}},
    {"specfast_router_kill", RouterArch::SpecFast, 1, Regime::RouterKill,
     {0x2465a228f0c22d7fULL, 1435, 1419, 16283, 293811.99999999994,
      {250690, 8122, 23538, 6361, 5101, 0, 0, 0}, 16367, 18880, 0,
      233542, 0xa686921624504867ULL, 233542, 0x0e9fd6beaca6c718ULL}},
    {"specaccurate_plain", RouterArch::SpecAccurate, 1, Regime::Plain,
     {0xdc2391630cb02d47ULL, 1584, 1584, 18073, 29534.999999999996,
      {0, 0, 0, 0, 0, 0, 0, 0}, 9595, 9888, 0,
      53697, 0xde1f070deb228a9eULL, 53697, 0x2da318346b6026daULL}},
    {"specaccurate_provenance", RouterArch::SpecAccurate, 1,
     Regime::Provenance,
     {0x7ebc67da17f43781ULL, 1584, 1584, 18217, 44824.000000000051,
      {20795, 9001, 10288, 1801, 2447, 0, 492, 0}, 9926, 10560, 0,
      239063, 0xa2c2072df70106c7ULL, 239063, 0x2cff8a16aecba81fULL}},
    {"specaccurate_router_kill", RouterArch::SpecAccurate, 1,
     Regime::RouterKill,
     {0x1e5d9aa96ed3e7deULL, 1435, 1426, 16336, 129880,
      {98755, 8153, 15729, 4139, 3104, 0, 0, 0}, 12390, 14336, 0,
      155585, 0xefe7fc5d8ddc1095ULL, 155585, 0x38a0f764f48f6ea7ULL}},
    {"nox_plain", RouterArch::Nox, 1, Regime::Plain,
     {0x4036f68d3bd60158ULL, 1584, 1584, 18073, 21751.000000000004,
      {0, 0, 0, 0, 0, 0, 0, 0}, 9492, 9840, 0,
      55751, 0xee544ea4d393e2e6ULL, 55751, 0x1341ddea084ad3b9ULL}},
    {"nox_provenance", RouterArch::Nox, 1, Regime::Provenance,
     {0x301ad1216b51e4b8ULL, 1584, 1584, 18224, 31590.999999999967,
      {11644, 9001, 7724, 1083, 1427, 246, 466, 0}, 9627, 10016, 0,
      238898, 0x8698c6f3718d623bULL, 238898, 0x6627fd289e0fa2daULL}},
    {"nox_router_kill", RouterArch::Nox, 1, Regime::RouterKill,
     {0x85b035310e0e8166ULL, 1435, 1431, 16382, 73546.999999999956,
      {48207, 8183, 12242, 2889, 1817, 205, 0, 4}, 10735, 12352, 0,
      133845, 0xe6d7d190c1106cdbULL, 133845, 0xe49b175757292fd2ULL}},
    {"nonspec_vc2_plain", RouterArch::NonSpeculative, 2, Regime::Plain,
     {0x90e2226fc8d132fcULL, 1584, 1584, 18073, 18471.000000000015,
      {0, 0, 0, 0, 0, 0, 0, 0}, 9469, 9840, 0,
      52205, 0x8425f027a64660b9ULL, 52205, 0x28779780f1d89f9dULL}},
    {"nonspec_vc2_provenance", RouterArch::NonSpeculative, 2,
     Regime::Provenance,
     {0xdf4684aad98601ffULL, 1584, 1584, 18222, 21671.999999999993,
      {4271, 9001, 5137, 446, 2358, 0, 459, 0}, 9541, 9888, 0,
      215426, 0xcd0f1cd1da0f56ecULL, 215426, 0x7b9eff362d47938eULL}},
    {"nonspec_vc2_router_kill", RouterArch::NonSpeculative, 2,
     Regime::RouterKill,
     {0xa158a923ef6de3f7ULL, 1435, 1431, 16398, 52918.000000000065,
      {21890, 8187, 15552, 3286, 4003, 0, 0, 0}, 10329, 11568, 0,
      126848, 0x8b2729ff2dd7638cULL, 126848, 0x11d8fe42e1289b29ULL}},
    {"nonspec_transport", RouterArch::NonSpeculative, 1, Regime::Transport,
     {0x7445813af9e832bdULL, 1529, 1529, 18580, 58483.000000000029,
      {32358, 8701, 10931, 1968, 1722, 0, 2793, 10}, 10601, 12656, 0xca42cd3e9cf225edULL,
      167811, 0x98d47255180caa75ULL, 167811, 0x0506bc9d3cade7b7ULL}},
    {"specfast_transport", RouterArch::SpecFast, 1, Regime::Transport,
     {0xdb7964553da3f48fULL, 1529, 1529, 40047, 306335.00000000012,
      {262391, 8679, 20110, 3941, 5013, 0, 6201, 0}, 30784, 35136, 0xe210975a608bac45ULL,
      344557, 0x1aed3dc6b579a884ULL, 344557, 0x3d79b31748df3917ULL}},
    {"specaccurate_transport", RouterArch::SpecAccurate, 1,
     Regime::Transport,
     {0x28865bd9fc4ab342ULL, 1529, 1529, 21951, 114509.00000000004,
      {82159, 8689, 14698, 2610, 2735, 0, 3618, 0}, 14548, 17248, 0xb9f9a306b22987eaULL,
      218289, 0xf87ad1d5c0fc6284ULL, 218289, 0xd3863ee9644167e1ULL}},
    {"nox_transport", RouterArch::Nox, 1, Regime::Transport,
     {0x4844b3da1c708597ULL, 1529, 1529, 18241, 56316.000000000036,
      {27423, 8707, 10543, 1764, 1624, 282, 5968, 5}, 10092, 11264, 0x12353223f77f4414ULL,
      151340, 0x937749936a4d9727ULL, 151340, 0x5b4f2194d27e363cULL}},
    {"nonspec_vc2_transport", RouterArch::NonSpeculative, 2,
     Regime::Transport,
     {0x2e76168b15528645ULL, 1529, 1529, 17970, 36604.999999999978,
      {9548, 8713, 9175, 1322, 3026, 0, 4821, 0}, 9290, 10016, 0xc9fc07948a43fd0cULL,
      136133, 0xa16314ad0b89bbb9ULL, 136133, 0x5ade78a3ef089845ULL}},
    {"nonspec_storm", RouterArch::NonSpeculative, 1, Regime::Storm,
     {0x22f6924a97178fc0ULL, 1580, 1580, 20145, 27904.999999999989,
      {10158, 8982, 5923, 819, 1386, 0, 634, 3}, 10796, 13088, 0x71044906f1daf47cULL,
      114436, 0x1af4487bc0b04234ULL, 114436, 0x9771b17ea741569fULL}},
    {"specfast_storm", RouterArch::SpecFast, 1, Regime::Storm,
     {0xa4d1614d3ed9b18aULL, 1580, 1155, 148100, 202916.99999999991,
      {176713, 6529, 12914, 1951, 3469, 0, 1341, 0}, 102593, 117248, 0x2612eebc2279d09dULL,
      744574, 0x43177d24b85a63ffULL, 744574, 0xea02fa86129eef10ULL}},
    {"specaccurate_storm", RouterArch::SpecAccurate, 1, Regime::Storm,
     {0x42d8413c2c6a1f99ULL, 1580, 1580, 32424, 76175,
      {55138, 8978, 7959, 1225, 2168, 0, 707, 0}, 22008, 28384, 0x9a13f1d8f0163895ULL,
      163675, 0x00f91b822fdaa67aULL, 163675, 0x1966b6e8dbbfa1d7ULL}},
    {"nox_storm", RouterArch::Nox, 1, Regime::Storm,
     {0x265e96d0ef2f5bf6ULL, 1580, 1580, 32189, 70292.000000000015,
      {48814, 8982, 8447, 1494, 1436, 236, 880, 3}, 19300, 24816, 0x5b27f74b50606d38ULL,
      172623, 0xcdef7dcd986a8dc9ULL, 172623, 0xd5bc126f6670bbecULL}},
    {"nonspec_vc2_storm", RouterArch::NonSpeculative, 2, Regime::Storm,
     {0x948993514f8bd883ULL, 1580, 1580, 18530, 20228,
      {4175, 8982, 4121, 276, 2023, 0, 651, 0}, 9470, 9952, 0x3ce07614160e9829ULL,
      99244, 0xc71f61eb30b417c4ULL, 99244, 0x0be402a5d6527333ULL}},
    {"nonspec_library", RouterArch::NonSpeculative, 1, Regime::Library,
     {0x6544a87c0b2d700cULL, 293, 293, 1804, 2316.9999999999991,
      {0, 0, 0, 0, 0, 0, 0, 0}, 1685, 9600, 0x07a21b937082fea1ULL,
      42533, 0xb47293d828a5f70aULL, 42533, 0xa459d748933a032dULL}},
    {"specfast_library", RouterArch::SpecFast, 1, Regime::Library,
     {0x47a786ea277fe73dULL, 286, 286, 1776, 6489.0000000000027,
      {0, 0, 0, 0, 0, 0, 0, 0}, 2455, 9984, 0x8126cd2151d5c661ULL,
      43493, 0xbf5fe4e2c1bc04c9ULL, 43493, 0xbe2bc2d7df77e950ULL}},
    {"specaccurate_library", RouterArch::SpecAccurate, 1,
     Regime::Library,
     {0xbf94d3142ef28d6fULL, 293, 293, 1804, 3374.9999999999977,
      {0, 0, 0, 0, 0, 0, 0, 0}, 1786, 9600, 0xd95e1df63d712f76ULL,
      43493, 0xb4291b1466fcc11bULL, 43493, 0x1b5c7dc66b482ca2ULL}},
    {"nox_library", RouterArch::Nox, 1, Regime::Library,
     {0x970b3198114568a7ULL, 293, 293, 1804, 2400.0000000000005,
      {0, 0, 0, 0, 0, 0, 0, 0}, 1692, 9600, 0x20095acb3d5a35ddULL,
      48965, 0xa687bc7a76adc5f7ULL, 48965, 0xef3453e9c74642cbULL}},
    {"nonspec_vc2_library", RouterArch::NonSpeculative, 2,
     Regime::Library,
     {0xac0db0c7ecbb8607ULL, 293, 293, 1804, 2316.9999999999991,
      {0, 0, 0, 0, 0, 0, 0, 0}, 1685, 9600, 0xb9dfd5780fc2f9fbULL,
      48181, 0x71f66ac7d727ef8cULL, 48181, 0xda454064d119fd6bULL}},
};

INSTANTIATE_TEST_SUITE_P(
    AllRouters, PinnedTrajectory, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace nox
