/**
 * @file
 * Pinned coherence traces: every built-in workload generates a short
 * trace (2,000 ns after a 4,000 ns warmup, seed 99), plus one run
 * without warmup, and each must reproduce recorded constants exactly:
 * the record count, an FNV-1a digest over every field of every record
 * (the time's bit pattern included), the trace duration and every
 * TraceGenStats counter.
 *
 * The generator's own tests check properties (sizes, ordering, load
 * band); these constants see any change to which packets it emits or
 * when, including ones that keep every property. A mismatch prints
 * the measured row in table syntax; re-record only for a change that
 * is meant to alter the generated traffic.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "coherence/trace_generator.hpp"

namespace nox {
namespace {

constexpr std::uint64_t kSeed = 99;

struct Pinned
{
    const char *workload;
    double horizonNs;
    double warmupNs;
    std::uint64_t records;
    std::uint64_t digest;
    double durationNs;
    TraceGenStats stats;
};

std::ostream &
operator<<(std::ostream &os, const Pinned &p)
{
    return os << p.workload << "/w" << p.warmupNs;
}

/** FNV-1a 64 over each field, eight little-endian bytes per field. */
std::uint64_t
traceDigest(const Trace &t)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    for (const TraceRecord &r : t.records) {
        fold(std::bit_cast<std::uint64_t>(r.timeNs));
        fold(r.src);
        fold(r.dst);
        fold(r.sizeBytes);
        fold(r.network);
        fold(static_cast<std::uint64_t>(r.cls));
    }
    return h;
}

std::string
row(const Pinned &p, std::uint64_t records, std::uint64_t digest,
    double duration, const TraceGenStats &s)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"%s\", %.1f, %.1f, %llu, 0x%016llxULL,\n %a,\n"
        " {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu, "
        "%llu, %llu, %llu}},",
        p.workload, p.horizonNs, p.warmupNs,
        static_cast<unsigned long long>(records),
        static_cast<unsigned long long>(digest), duration,
        static_cast<unsigned long long>(s.memOps),
        static_cast<unsigned long long>(s.l1Hits),
        static_cast<unsigned long long>(s.l1Misses),
        static_cast<unsigned long long>(s.l2Hits),
        static_cast<unsigned long long>(s.l2Misses),
        static_cast<unsigned long long>(s.getS),
        static_cast<unsigned long long>(s.getM),
        static_cast<unsigned long long>(s.invalidations),
        static_cast<unsigned long long>(s.forwards),
        static_cast<unsigned long long>(s.writebacks),
        static_cast<unsigned long long>(s.ctrlPackets),
        static_cast<unsigned long long>(s.dataPackets));
    return buf;
}

class TracePin : public ::testing::TestWithParam<Pinned>
{
};

TEST_P(TracePin, MatchesRecordedTrace)
{
    const Pinned &p = GetParam();
    CmpParams params;
    CoherenceTraceGenerator gen(params, findWorkload(p.workload),
                                kSeed);
    const Trace t = gen.generate(p.horizonNs, p.warmupNs);
    const TraceGenStats &s = gen.stats();
    const std::uint64_t digest = traceDigest(t);

    EXPECT_EQ(t.records.size(), p.records);
    EXPECT_EQ(digest, p.digest);
    EXPECT_EQ(t.durationNs, p.durationNs);
    EXPECT_EQ(s.memOps, p.stats.memOps);
    EXPECT_EQ(s.l1Hits, p.stats.l1Hits);
    EXPECT_EQ(s.l1Misses, p.stats.l1Misses);
    EXPECT_EQ(s.l2Hits, p.stats.l2Hits);
    EXPECT_EQ(s.l2Misses, p.stats.l2Misses);
    EXPECT_EQ(s.getS, p.stats.getS);
    EXPECT_EQ(s.getM, p.stats.getM);
    EXPECT_EQ(s.invalidations, p.stats.invalidations);
    EXPECT_EQ(s.forwards, p.stats.forwards);
    EXPECT_EQ(s.writebacks, p.stats.writebacks);
    EXPECT_EQ(s.ctrlPackets, p.stats.ctrlPackets);
    EXPECT_EQ(s.dataPackets, p.stats.dataPackets);
    if (HasFailure()) {
        ADD_FAILURE() << "measured:\n"
                      << row(p, t.records.size(), digest,
                             t.durationNs, s);
    }
}

// Recorded constants. The warmup-0 row keeps every emitted packet, so
// its record count equals ctrlPackets + dataPackets.
const Pinned kPinned[] = {
    {"barnes", 2000.0, 4000.0, 16393, 0xb7bba7b58e938557ULL,
     0x1.0198c5c61e91p+11,
     {111831, 101865, 9966, 5, 9961, 7992, 6516, 2110, 642, 0, 37819, 10390}},
    {"fft", 2000.0, 4000.0, 18293, 0xa7595907df426745ULL,
     0x1.017d14700a74p+11,
     {142012, 130499, 11513, 4, 11509, 7588, 9849, 448, 517, 0, 41592, 11678}},
    {"lu", 2000.0, 4000.0, 16760, 0x1304c5a86af2ac2fULL,
     0x1.0157166e19c7ap+11,
     {137536, 126917, 10619, 1, 10618, 7544, 8757, 551, 414, 0, 39194, 10767}},
    {"ocean", 2000.0, 4000.0, 19890, 0x1e19bfc89138e945ULL,
     0x1.01a4525d6dff2p+11,
     {123617, 111493, 12124, 8, 12116, 8277, 9796, 886, 826, 0, 43956, 12510}},
    {"radix", 2000.0, 4000.0, 19978, 0x7c16894d7855c8f8ULL,
     0x1.013f4a445ee86p+11,
     {119345, 106441, 12904, 10, 12894, 7354, 10820, 1007, 813, 0, 43787,
      13219}},
    {"water", 2000.0, 4000.0, 15600, 0x4002f3ecea50a854ULL,
     0x1.01915ae2139d6p+11,
     {111369, 102153, 9216, 4, 9212, 7510, 6287, 1473, 555, 0, 35172, 9586}},
    {"apache", 2000.0, 4000.0, 16190, 0xcc920ef5b6f472b7ULL,
     0x1.01ca4c8c3d5dep+11,
     {100947, 90948, 9999, 7, 9992, 7506, 7242, 1054, 557, 0, 36221, 10270}},
    {"specjbb", 2000.0, 4000.0, 15183, 0x58e6223df547a9b5ULL,
     0x1.00eb13e6f3184p+11,
     {102731, 92991, 9740, 4, 9736, 6985, 7487, 711, 454, 0, 34996, 9947}},
    {"specweb", 2000.0, 4000.0, 14668, 0x8efcac3b23c14813ULL,
     0x1.016b58270c30cp+11,
     {93905, 84682, 9223, 3, 9220, 7061, 6546, 952, 515, 0, 33390, 9490}},
    {"tpcc", 2000.0, 4000.0, 14786, 0x87ed9e28feaffae0ULL,
     0x1.0175c05c5a6acp+11,
     {93711, 84362, 9349, 0, 9349, 6298, 7121, 1204, 594, 0, 33255, 9667}},
    {"tpcc", 3000.0, 0.0, 20826, 0x106e7786431426ddULL,
     0x1.7e7d613021935p+11,
     {45625, 40971, 4654, 0, 4654, 3120, 3548, 430, 207, 0, 16076, 4750}},
};

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TracePin, ::testing::ValuesIn(kPinned),
    [](const ::testing::TestParamInfo<Pinned> &info) {
        std::string name = info.param.workload;
        if (info.param.warmupNs == 0.0)
            name += "_nowarmup";
        return name;
    });

} // namespace
} // namespace nox
