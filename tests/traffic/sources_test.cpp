/** @file Tests for the Bernoulli and self-similar Pareto sources. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "snapshot/io.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/pareto_source.hpp"

namespace nox {
namespace {

/** Captures injections without a network. */
class FakeInjector : public PacketInjector
{
  public:
    struct Event
    {
        NodeId src, dst;
        int flits;
        Cycle when;
    };

    PacketId
    injectPacket(NodeId src, NodeId dst, int flits, Cycle now,
                 TrafficClass) override
    {
        events.push_back({src, dst, flits, now});
        return static_cast<PacketId>(events.size());
    }

    std::size_t sourceQueueFlits(NodeId) const override { return 0; }

    std::uint64_t
    totalFlits() const
    {
        std::uint64_t f = 0;
        for (const auto &e : events)
            f += static_cast<std::uint64_t>(e.flits);
        return f;
    }

    std::vector<Event> events;
};

/** The bytes @p rng serializes to. */
std::vector<std::uint8_t>
streamBytes(const Rng &rng)
{
    snap::Writer w;
    snap::io(w, rng);
    return w.take();
}

/** The bytes @p src serializes to against @p clock. */
std::vector<std::uint8_t>
sourceBytes(const TrafficSource &src, Cycle clock)
{
    snap::Writer w;
    src.serialize(w, clock);
    return w.take();
}

TEST(BernoulliSource, RateMatchesTarget)
{
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    BernoulliSource src(0, pattern, 0.2, 1, 42);
    FakeInjector inj;
    const Cycle cycles = 100000;
    for (Cycle t = 0; t < cycles; ++t)
        src.tick(t, inj);
    const double rate =
        static_cast<double>(inj.totalFlits()) / cycles;
    EXPECT_NEAR(rate, 0.2, 0.01);
}

TEST(BernoulliSource, MultiFlitPacketsKeepFlitRate)
{
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    BernoulliSource src(0, pattern, 0.18, 9, 43);
    FakeInjector inj;
    const Cycle cycles = 200000;
    for (Cycle t = 0; t < cycles; ++t)
        src.tick(t, inj);
    const double rate =
        static_cast<double>(inj.totalFlits()) / cycles;
    EXPECT_NEAR(rate, 0.18, 0.01);
    for (const auto &e : inj.events)
        EXPECT_EQ(e.flits, 9);
}

TEST(BernoulliSource, ZeroRateInjectsNothing)
{
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    BernoulliSource src(0, pattern, 0.0, 1, 44);
    FakeInjector inj;
    for (Cycle t = 0; t < 1000; ++t)
        src.tick(t, inj);
    EXPECT_TRUE(inj.events.empty());
}

TEST(BernoulliSource, SilentOnSelfMappedDeterministicSource)
{
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::Transpose, m);
    // Node (3,3) is on the transpose diagonal.
    BernoulliSource src(m.nodeAt({3, 3}), pattern, 0.5, 1, 45);
    FakeInjector inj;
    for (Cycle t = 0; t < 1000; ++t)
        src.tick(t, inj);
    EXPECT_TRUE(inj.events.empty());
}

TEST(BernoulliSource, CertainAndImpossibleTrialsDrawNothing)
{
    // As nextBernoulli(p) draws nothing for p <= 0 or p >= 1, neither
    // source moves its stream: transpose picks without drawing, and
    // node 1 of a 4x4 mesh is off the diagonal.
    const Mesh m(4, 4);
    const DestinationPattern pattern(PatternKind::Transpose, m);
    BernoulliSource never(1, pattern, 0.0, 1, 46);
    BernoulliSource always(1, pattern, 2.0, 2, 47);
    FakeInjector inj;
    EXPECT_EQ(never.tick(0, inj), kNeverDue);
    for (Cycle t = 0; t < 100; ++t)
        EXPECT_EQ(always.tick(t, inj), t + 1);
    EXPECT_EQ(inj.events.size(), 100u);
    EXPECT_EQ(sourceBytes(never, 100), streamBytes(Rng(46)));
    EXPECT_EQ(sourceBytes(always, 100), streamBytes(Rng(47)));
}

TEST(BernoulliSource, RestoreReplacesDrawnAheadState)
{
    // A restore takes the whole state from the bytes: a source that
    // had drawn ahead on another stream then acts as the one whose
    // bytes it read, from the restore cycle on.
    const Mesh m(4, 4);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    BernoulliSource donor(0, pattern, 0.05, 1, 50);
    BernoulliSource target(0, pattern, 0.05, 1, 51);
    FakeInjector warm;
    Cycle donorDue = 0, targetDue = 0;
    for (Cycle t = 0; t < 100; ++t) {
        if (t == donorDue)
            donorDue = donor.tick(t, warm);
        if (t == targetDue)
            targetDue = target.tick(t, warm);
    }
    const std::vector<std::uint8_t> bytes = sourceBytes(donor, 100);
    snap::Reader r(bytes.data(), bytes.size());
    target.restore(r);
    targetDue = 100;
    FakeInjector a, b;
    for (Cycle t = 100; t < 1000; ++t) {
        if (t == donorDue)
            donorDue = donor.tick(t, a);
        if (t == targetDue)
            targetDue = target.tick(t, b);
    }
    ASSERT_GT(a.events.size(), 10u);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].when, b.events[i].when) << i;
        EXPECT_EQ(a.events[i].dst, b.events[i].dst) << i;
    }
}

/**
 * Network-level oracle for the source calendar. A 2x2 mesh carries a
 * low-rate Bernoulli source (gaps of ~30 cycles) on nodes 0 and 3 and
 * a self-similar source on nodes 1 and 2; each is wrapped so that its
 * injections are logged. The oracle is what every source did before
 * the calendar: every enabled cycle, a Bernoulli node draws
 * nextBernoulli(p) and, on a success, pick(); a Pareto node is a twin
 * source ticked every enabled cycle. Pauses come from
 * setSourcesEnabled(false) and from drain() called with live sources.
 */
class CalendarOracle : public ::testing::Test
{
  protected:
    static constexpr int kNodes = 4;
    static constexpr double kBernoulliRate = 0.03;
    static constexpr double kParetoRate = 0.08;

    struct Event
    {
        Cycle when;
        NodeId src, dst;
        bool operator==(const Event &) const = default;
    };

    /** Forwards to the network and logs each injection. */
    class Tap : public PacketInjector
    {
      public:
        Tap(PacketInjector &inner, std::vector<Event> &log)
            : inner_(inner), log_(log)
        {
        }
        PacketId
        injectPacket(NodeId src, NodeId dst, int flits, Cycle now,
                     TrafficClass cls) override
        {
            log_.push_back({now, src, dst});
            return inner_.injectPacket(src, dst, flits, now, cls);
        }
        std::size_t
        sourceQueueFlits(NodeId node) const override
        {
            return inner_.sourceQueueFlits(node);
        }

      private:
        PacketInjector &inner_;
        std::vector<Event> &log_;
    };

    /** A source whose injections go through a Tap. */
    class Logged : public TrafficSource
    {
      public:
        Logged(std::unique_ptr<TrafficSource> inner,
               std::vector<Event> &log)
            : inner_(std::move(inner)), log_(log)
        {
        }
        Cycle
        tick(Cycle now, PacketInjector &inj) override
        {
            Tap tap(inj, log_);
            return inner_->tick(now, tap);
        }
        Cycle
        resume(Cycle due, Cycle paused) override
        {
            return inner_->resume(due, paused);
        }
        void
        serialize(snap::Writer &w, Cycle clock) const override
        {
            inner_->serialize(w, clock);
        }
        void restore(snap::Reader &r) override { inner_->restore(r); }

      private:
        std::unique_ptr<TrafficSource> inner_;
        std::vector<Event> &log_;
    };

    static bool isBernoulli(NodeId n) { return n == 0 || n == 3; }
    static std::uint64_t seedOf(NodeId n) { return 900 + n; }

    /** A network whose sources log into @p log (kept in @p sources). */
    std::unique_ptr<Network>
    build(std::vector<Event> &log, std::vector<const Logged *> *sources)
    {
        NetworkParams params;
        params.width = 2;
        params.height = 2;
        params.schedulingMode = SchedulingMode::ActivityDriven;
        auto net = makeNetwork(params, RouterArch::Nox);
        for (NodeId n = 0; n < kNodes; ++n) {
            std::unique_ptr<TrafficSource> inner;
            if (isBernoulli(n)) {
                inner = std::make_unique<BernoulliSource>(
                    n, pattern_, kBernoulliRate, 1, seedOf(n));
            } else {
                inner = std::make_unique<ParetoSource>(
                    n, pattern_, kParetoRate, 1, seedOf(n));
            }
            auto logged = std::make_unique<Logged>(std::move(inner), log);
            if (sources)
                sources->push_back(logged.get());
            net->addSource(std::move(logged));
        }
        return net;
    }

    /** The per-cycle process, one enabled cycle at @p now. */
    void
    oracleCycle(Cycle now)
    {
        for (NodeId n = 0; n < kNodes; ++n) {
            if (!isBernoulli(n)) {
                twins_[static_cast<std::size_t>(n)]->tick(now, twinTap_);
                continue;
            }
            Rng &rng = streams_[static_cast<std::size_t>(n)];
            if (!rng.nextBernoulli(kBernoulliRate))
                continue;
            const NodeId dst = pattern_.pick(n, rng);
            if (dst != kInvalidNode)
                expected_.push_back({now, n, dst});
        }
    }

    /** The oracle's serialized state of node @p n. */
    std::vector<std::uint8_t>
    oracleBytes(NodeId n) const
    {
        const auto i = static_cast<std::size_t>(n);
        if (isBernoulli(n))
            return streamBytes(streams_[i]);
        return sourceBytes(*twins_[i], 0);
    }

    void
    SetUp() override
    {
        for (NodeId n = 0; n < kNodes; ++n) {
            streams_.emplace_back(seedOf(n));
            twins_.push_back(std::make_unique<ParetoSource>(
                n, pattern_, kParetoRate, 1, seedOf(n)));
        }
    }

    /** Discards the network side of the twins' injections. */
    class Sink : public PacketInjector
    {
      public:
        explicit Sink(std::vector<Event> &log) : log_(log) {}
        PacketId
        injectPacket(NodeId src, NodeId dst, int, Cycle now,
                     TrafficClass) override
        {
            log_.push_back({now, src, dst});
            return 0;
        }
        std::size_t sourceQueueFlits(NodeId) const override { return 0; }

      private:
        std::vector<Event> &log_;
    };

    const Mesh mesh_{2, 2};
    const DestinationPattern pattern_{PatternKind::UniformRandom, mesh_};
    std::vector<Rng> streams_;
    std::vector<std::unique_ptr<ParetoSource>> twins_;
    std::vector<Event> expected_;
    Sink twinTap_{expected_};
};

/** Enabled state of the sources at cycle @p t in the schedule the
 *  oracle tests share (pauses in [200, 245) and [500, 540)). */
bool
enabledAt(Cycle t)
{
    return !(t >= 200 && t < 245) && !(t >= 500 && t < 540);
}

TEST_F(CalendarOracle, TicksAndStreamsMatchPerCycleProcess)
{
    std::vector<Event> log;
    std::vector<const Logged *> sources;
    auto net = build(log, &sources);
    constexpr Cycle kEnd = 800;
    Cycle pausedAt = 0;
    for (Cycle t = 0; t < kEnd; ++t) {
        if (t > 0 && enabledAt(t) != enabledAt(t - 1)) {
            net->setSourcesEnabled(enabledAt(t));
            pausedAt = t;
        }
        // Between steps every source serializes the stream the
        // per-cycle process has: mid-gap, at a success and paused.
        const Cycle clock = enabledAt(t) ? t : pausedAt;
        for (NodeId n = 0; n < kNodes; ++n) {
            ASSERT_EQ(sourceBytes(*sources[static_cast<std::size_t>(n)],
                                  clock),
                      oracleBytes(n))
                << "node " << n << " at cycle " << t;
        }
        if (enabledAt(t))
            oracleCycle(t);
        net->step();
    }
    // A drain with live sources pauses them for its length; start it
    // with a packet in flight.
    while (net->packetsInFlight() == 0) {
        oracleCycle(net->now());
        net->step();
    }
    const Cycle drainFrom = net->now();
    ASSERT_TRUE(net->drain(10000));
    const Cycle drainEnd = net->now();
    EXPECT_GT(drainEnd, drainFrom);
    for (Cycle t = drainEnd; t < drainEnd + 300; ++t) {
        oracleCycle(t);
        net->step();
    }
    ASSERT_GT(expected_.size(), 40u);
    EXPECT_EQ(log, expected_);
}

TEST_F(CalendarOracle, RestoreAtEveryCycleResumesTheSameTraffic)
{
    // A snapshot at every cycle — inside every Bernoulli gap, at
    // successes, inside the pauses and at their edges — restored into
    // a fresh network, which then injects what the original did.
    constexpr Cycle kEnd = 600;
    std::vector<Event> log;
    auto net = build(log, nullptr);
    std::vector<std::vector<std::uint8_t>> images;
    for (Cycle t = 0; t < kEnd; ++t) {
        if (t > 0 && enabledAt(t) != enabledAt(t - 1))
            net->setSourcesEnabled(enabledAt(t));
        snap::Writer w;
        net->serialize(w);
        images.push_back(w.take());
        net->step();
    }
    ASSERT_GT(log.size(), 40u);
    for (Cycle c = 0; c < kEnd; ++c) {
        std::vector<Event> tail;
        auto twin = build(tail, nullptr);
        const std::vector<std::uint8_t> &image = images[c];
        snap::Reader r(image.data(), image.size());
        twin->restore(r);
        ASSERT_EQ(twin->now(), c);
        snap::Writer again;
        twin->serialize(again);
        ASSERT_EQ(again.take(), image) << "restore at cycle " << c;
        for (Cycle t = c; t < kEnd; ++t) {
            if (t > c && enabledAt(t) != enabledAt(t - 1))
                twin->setSourcesEnabled(enabledAt(t));
            twin->step();
        }
        std::vector<Event> want;
        for (const Event &e : log) {
            if (e.when >= c)
                want.push_back(e);
        }
        ASSERT_EQ(tail, want) << "restored at cycle " << c;
    }
}

TEST(ParetoSource, MeanRateMatchesTarget)
{
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    // Long horizon: heavy-tailed phases converge slowly.
    for (double target : {0.1, 0.3}) {
        double total = 0.0;
        const int streams = 16;
        const Cycle cycles = 200000;
        for (int s = 0; s < streams; ++s) {
            ParetoSource src(0, pattern, target, 1,
                             1000 + static_cast<std::uint64_t>(s));
            FakeInjector inj;
            for (Cycle t = 0; t < cycles; ++t)
                src.tick(t, inj);
            total += static_cast<double>(inj.totalFlits()) / cycles;
        }
        EXPECT_NEAR(total / streams, target, target * 0.15)
            << "target " << target;
    }
}

TEST(ParetoSource, TrafficIsBursty)
{
    // Self-similar traffic must be burstier than Bernoulli at equal
    // rate: compare the variance of per-window packet counts.
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    const double rate = 0.2;
    const Cycle cycles = 200000;
    const Cycle window = 100;

    auto window_variance = [&](auto &src) {
        FakeInjector inj;
        for (Cycle t = 0; t < cycles; ++t)
            src.tick(t, inj);
        std::vector<double> counts(cycles / window, 0.0);
        for (const auto &e : inj.events)
            counts[e.when / window] += 1.0;
        double mean = 0.0;
        for (double c : counts)
            mean += c;
        mean /= static_cast<double>(counts.size());
        double var = 0.0;
        for (double c : counts)
            var += (c - mean) * (c - mean);
        return var / static_cast<double>(counts.size());
    };

    BernoulliSource bern(0, pattern, rate, 1, 7);
    ParetoSource pareto(0, pattern, rate, 1, 7);
    EXPECT_GT(window_variance(pareto), 3.0 * window_variance(bern));
}

TEST(ParetoSource, BurstAddressesSingleDestination)
{
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    ParetoSource src(0, pattern, 0.3, 1, 11);
    FakeInjector inj;
    for (Cycle t = 0; t < 5000; ++t)
        src.tick(t, inj);
    ASSERT_GT(inj.events.size(), 50u);
    // Consecutive-cycle injections belong to one burst -> same dest.
    for (std::size_t i = 1; i < inj.events.size(); ++i) {
        if (inj.events[i].when == inj.events[i - 1].when + 1) {
            EXPECT_EQ(inj.events[i].dst, inj.events[i - 1].dst);
        }
    }
}

TEST(ParetoSource, OffScaleGrowsAsRateShrinks)
{
    const Mesh m(8, 8);
    const DestinationPattern pattern(PatternKind::UniformRandom, m);
    ParetoSource slow(0, pattern, 0.05, 1, 1);
    ParetoSource fast(0, pattern, 0.5, 1, 1);
    EXPECT_GT(slow.offScale(), fast.offScale());
}

} // namespace
} // namespace nox
