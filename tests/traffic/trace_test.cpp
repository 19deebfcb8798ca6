/** @file Tests for trace I/O and nanosecond-to-cycle replay. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "noc/flit.hpp"
#include "traffic/replay_source.hpp"
#include "traffic/trace.hpp"

namespace nox {
namespace {

Trace
sampleTrace()
{
    Trace t;
    t.name = "sample";
    t.durationNs = 100.0;
    t.records = {
        {1.5, 0, 5, 8, 0, TrafficClass::Request},
        {2.0, 5, 0, 72, 1, TrafficClass::Reply},
        {50.0, 3, 9, 8, 0, TrafficClass::Request},
        {99.0, 9, 3, 72, 1, TrafficClass::Reply},
    };
    return t;
}

TEST(Trace, FlitSizing)
{
    TraceRecord ctrl{0.0, 0, 1, 8, 0, TrafficClass::Request};
    TraceRecord data{0.0, 0, 1, 72, 1, TrafficClass::Reply};
    EXPECT_EQ(ctrl.flits(), 1);  // 8-byte control packet, 64-bit flit
    EXPECT_EQ(data.flits(), 9);  // 72-byte data packet
    TraceRecord odd{0.0, 0, 1, 12, 0, TrafficClass::Request};
    EXPECT_EQ(odd.flits(), 2);   // rounds up
}

TEST(Trace, RoundTripThroughStream)
{
    Trace t = sampleTrace();
    // Times the way the generator makes them: sums of fractional
    // latencies, which need all 17 significant digits to round-trip.
    Rng rng(7);
    double now = 99.0;
    for (int i = 0; i < 200; ++i) {
        now += rng.nextExponential(3.7) + 0.8 * (1 + i % 5);
        t.records.push_back({now, i % 16, (i + 5) % 16,
                             i % 3 ? 8u : 72u,
                             static_cast<std::uint8_t>(i % 2),
                             i % 2 ? TrafficClass::Reply
                                   : TrafficClass::Request});
    }
    t.durationNs = now + 1.0 / 3.0;
    std::stringstream ss;
    writeTrace(ss, t);
    const Trace u = readTrace(ss, "sample");
    ASSERT_EQ(u.records.size(), t.records.size());
    EXPECT_EQ(u.durationNs, t.durationNs);
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        EXPECT_EQ(u.records[i].timeNs, t.records[i].timeNs) << i;
        EXPECT_EQ(u.records[i].src, t.records[i].src);
        EXPECT_EQ(u.records[i].dst, t.records[i].dst);
        EXPECT_EQ(u.records[i].sizeBytes, t.records[i].sizeBytes);
        EXPECT_EQ(u.records[i].network, t.records[i].network);
        EXPECT_EQ(static_cast<int>(u.records[i].cls),
                  static_cast<int>(t.records[i].cls));
    }
}

/** readTrace on @p text must exit 1 with @p message naming the line. */
void
expectRejected(const std::string &text, const std::string &message)
{
    EXPECT_EXIT(
        {
            std::stringstream ss(text);
            (void)readTrace(ss);
        },
        ::testing::ExitedWithCode(1), message);
}

constexpr const char *kGoodLine = "1.5 0 5 8 0 1\n";

TEST(TraceReject, NegativeTime)
{
    expectRejected(std::string(kGoodLine) + "-5 0 5 8 0 1\n",
                   "line 2: time_ns must be finite and non-negative");
}

TEST(TraceReject, NonFiniteTime)
{
    expectRejected(std::string(kGoodLine) + "nan 0 5 8 0 1\n",
                   "line 2");
    expectRejected(std::string(kGoodLine) + "1e999 0 5 8 0 1\n",
                   "line 2");
}

TEST(TraceReject, ZeroSize)
{
    expectRejected(std::string(kGoodLine) + "2.0 0 5 0 0 1\n",
                   "line 2: size_bytes must be in 1\\.\\.2048");
    expectRejected(std::string(kGoodLine) + "2.0 0 5 -8 0 1\n",
                   "line 2: size_bytes");
}

TEST(TraceReject, PacketOverMaxFlits)
{
    // 2,049 bytes is 257 8-byte flits; flitUid numbers 256.
    expectRejected(std::string(kGoodLine) + "2.0 0 5 2049 0 1\n",
                   "line 2: size_bytes must be in 1\\.\\.2048");
    std::stringstream ss(std::string(kGoodLine) + "2.0 0 5 2048 0 1\n");
    EXPECT_EQ(readTrace(ss).records.back().flits(), kMaxPacketFlits);
}

TEST(TraceReject, NetworkOutOfRange)
{
    expectRejected(std::string(kGoodLine) + "2.0 0 5 8 7 1\n",
                   "line 2: network must be 0 \\(request\\) or 1");
}

TEST(TraceReject, ClassOutOfRange)
{
    expectRejected(std::string(kGoodLine) + "2.0 0 5 8 0 9\n",
                   "line 2: class must be 0");
}

TEST(TraceReject, MalformedLine)
{
    expectRejected(std::string(kGoodLine) + "2.0 0 5 8 0\n",
                   "malformed trace line 2");
    expectRejected(std::string(kGoodLine) + "2.0 0 5 8 0 1 extra\n",
                   "malformed trace line 2");
}

TEST(TraceReject, BadDuration)
{
    expectRejected("# duration_ns -1\n" + std::string(kGoodLine),
                   "line 1: duration_ns must be finite");
}

TEST(Trace, ReadSortsByTime)
{
    std::stringstream ss;
    ss << "5.0 0 1 8 0 1\n1.0 2 3 8 0 1\n";
    const Trace t = readTrace(ss);
    ASSERT_EQ(t.records.size(), 2u);
    EXPECT_DOUBLE_EQ(t.records[0].timeNs, 1.0);
    EXPECT_DOUBLE_EQ(t.records[1].timeNs, 5.0);
}

TEST(Trace, PerNetworkSplit)
{
    const Trace t = sampleTrace();
    EXPECT_EQ(t.forNetwork(0).size(), 2u);
    EXPECT_EQ(t.forNetwork(1).size(), 2u);
    for (const auto &r : t.forNetwork(1))
        EXPECT_EQ(r.sizeBytes, 72u);
}

TEST(Trace, LoadAccounting)
{
    const Trace t = sampleTrace();
    // Request net: 16 bytes over 100 ns over N nodes.
    EXPECT_NEAR(t.bytesPerNsPerNode(4, 0), 16.0 / 100.0 / 4.0, 1e-12);
    EXPECT_NEAR(t.bytesPerNsPerNode(4, 1), 144.0 / 100.0 / 4.0, 1e-12);
}

class ReplayInjector : public PacketInjector
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
        return 1;
    }

    std::size_t sourceQueueFlits(NodeId) const override { return 0; }

    std::vector<Event> events;
};

TEST(ReplaySource, ConvertsNsToCyclesAtPeriod)
{
    // Period 0.76 ns: a 1.5 ns event lands at cycle ceil(1.97) = 2.
    ReplaySource src(sampleTrace().forNetwork(0), 0.76);
    ReplayInjector inj;
    for (Cycle t = 0; t < 200 && !src.done(); ++t)
        src.tick(t, inj);
    ASSERT_EQ(inj.events.size(), 2u);
    EXPECT_EQ(inj.events[0].when, 2u);   // ceil(1.5/0.76)
    EXPECT_EQ(inj.events[0].flits, 1);
    EXPECT_EQ(inj.events[1].when, 66u);  // ceil(50/0.76)
    EXPECT_TRUE(src.done());
}

TEST(ReplaySource, FasterClockMeansLaterCycleNumbers)
{
    ReplaySource slow(sampleTrace().forNetwork(0), 0.92);
    ReplaySource fast(sampleTrace().forNetwork(0), 0.69);
    ReplayInjector a, b;
    for (Cycle t = 0; t < 200; ++t) {
        slow.tick(t, a);
        fast.tick(t, b);
    }
    ASSERT_EQ(a.events.size(), b.events.size());
    // Same wall-clock instant -> more cycles on the faster network.
    EXPECT_LE(a.events[1].when, b.events[1].when);
}

TEST(ReplaySource, CatchesUpAfterIdleTicks)
{
    // If tick is first called late (e.g. cycle 100), all due records
    // inject immediately rather than being dropped.
    ReplaySource src(sampleTrace().forNetwork(0), 1.0);
    ReplayInjector inj;
    src.tick(100, inj);
    EXPECT_EQ(inj.events.size(), 2u);
}

} // namespace
} // namespace nox
