/**
 * @file
 * Unit tests for the digest primitives and the ledger file format:
 * hash properties (absence sentinel, order sensitivity), stride
 * folding and component attribution, JSONL round-trip with fold
 * re-verification, and the stride/ledger comparison semantics diff
 * and bisect rely on (first divergence, prefix tolerance, alignment
 * and interval guards).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/digest.hpp"

namespace nox {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t>
bytes(std::initializer_list<int> vals)
{
    std::vector<std::uint8_t> b;
    for (int v : vals)
        b.push_back(static_cast<std::uint8_t>(v));
    return b;
}

TEST(DigestHashTest, NeverReturnsAbsenceSentinel)
{
    // 0 is reserved for "component absent"; real digests remap it.
    const auto empty = digestBytes(nullptr, 0);
    EXPECT_NE(empty, 0u);
    for (int v = 0; v < 64; ++v) {
        const auto b = bytes({v});
        EXPECT_NE(digestBytes(b.data(), b.size()), 0u);
    }
}

TEST(DigestHashTest, SensitiveToEveryByteAndToLength)
{
    const auto a = bytes({1, 2, 3, 4});
    const auto h = digestBytes(a.data(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        auto mutated = a;
        mutated[i] ^= 1;
        EXPECT_NE(digestBytes(mutated.data(), mutated.size()), h)
            << "bit flip in byte " << i << " not detected";
    }
    EXPECT_NE(digestBytes(a.data(), a.size() - 1), h);
    // And deterministic: same bytes, same hash.
    EXPECT_EQ(digestBytes(a.data(), a.size()), h);
}

TEST(DigestHashTest, MixIsOrderSensitive)
{
    const DigestHash h0 = 0x1234;
    EXPECT_NE(digestMix(digestMix(h0, 1), 2),
              digestMix(digestMix(h0, 2), 1));
    EXPECT_NE(digestMix(h0, 1), h0);
}

DigestStride
makeStride(Cycle cycle)
{
    DigestStride s;
    s.cycle = cycle;
    s.global = 0x1111;
    s.sources = 0x2222;
    s.faults = 0; // absent
    s.transport = 0x4444;
    s.routers = {10, 20, 30, 40};
    s.nics = {50, 60, 70, 80};
    return s;
}

TEST(DigestStrideTest, FoldCoversEveryComponent)
{
    const DigestStride base = makeStride(100);
    const DigestHash fold = base.fold();
    EXPECT_NE(fold, 0u);

    auto check = [&](auto mutate, const char *what) {
        DigestStride m = base;
        mutate(m);
        EXPECT_NE(m.fold(), fold) << what << " not folded";
    };
    check([](DigestStride &s) { s.cycle = 101; }, "cycle");
    check([](DigestStride &s) { s.global ^= 1; }, "global");
    check([](DigestStride &s) { s.sources ^= 1; }, "sources");
    check([](DigestStride &s) { s.faults = 0x3333; }, "faults");
    check([](DigestStride &s) { s.transport ^= 1; }, "transport");
    check([](DigestStride &s) { s.routers[2] ^= 1; }, "router");
    check([](DigestStride &s) { s.nics[3] ^= 1; }, "nic");
    check([](DigestStride &s) { s.routers.pop_back(); },
          "router count");
}

TEST(DigestStrideTest, DivergentComponentsNamesExactOffenders)
{
    const DigestStride a = makeStride(100);
    DigestStride b = a;
    EXPECT_TRUE(divergentComponents(a, b).empty());

    b.global ^= 1;
    b.routers[2] ^= 1;
    b.nics[0] ^= 1;
    const std::vector<std::string> names = divergentComponents(a, b);
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "global");
    EXPECT_EQ(names[1], "router:2");
    EXPECT_EQ(names[2], "nic:0");
}

TEST(DigestLedgerTest, DueAtIntervalBoundariesOnly)
{
    DigestParams params;
    params.enabled = true;
    params.interval = 250;
    DigestLedger ledger(params);
    EXPECT_FALSE(ledger.due(0)); // construction state is not a stride
    EXPECT_FALSE(ledger.due(1));
    EXPECT_FALSE(ledger.due(249));
    EXPECT_TRUE(ledger.due(250));
    EXPECT_FALSE(ledger.due(251));
    EXPECT_TRUE(ledger.due(500));
}

TEST(DigestLedgerTest, RecordsInMemoryWithoutFile)
{
    DigestParams params;
    params.enabled = true;
    params.interval = 10;
    DigestLedger ledger(params);
    EXPECT_EQ(ledger.strideCount(), 0u);
    EXPECT_EQ(ledger.lastDigestCycle(), -1);

    ledger.record(makeStride(10));
    ledger.record(makeStride(20));
    EXPECT_EQ(ledger.strideCount(), 2u);
    EXPECT_EQ(ledger.lastDigestCycle(), 20);
    EXPECT_EQ(ledger.strides()[0].cycle, 10u);
}

class DigestLedgerFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One directory per test and process: ctest -j runs these
        // tests concurrently, and each TearDown removes its own.
        dir_ = fs::temp_directory_path() /
               ("nox-digest-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "-" + std::to_string(::getpid()));
        fs::create_directories(dir_);
        path_ = (dir_ / "ledger.jsonl").string();
        std::remove(path_.c_str());
    }
    void TearDown() override { fs::remove_all(dir_); }

    fs::path dir_;
    std::string path_;
};

TEST_F(DigestLedgerFileTest, JsonlRoundtrip)
{
    DigestParams params;
    params.enabled = true;
    params.interval = 100;
    params.jsonlPath = path_;
    {
        DigestLedger ledger(params);
        ledger.writeHeader("arch=test sched=alwaystick");
        ledger.record(makeStride(100));
        DigestStride second = makeStride(200);
        second.faults = 0x5555; // present this time
        ledger.record(second);
    }

    LedgerFile file;
    std::string err;
    ASSERT_TRUE(loadDigestLedger(path_, &file, &err)) << err;
    EXPECT_EQ(file.fingerprint, "arch=test sched=alwaystick");
    EXPECT_EQ(file.interval, 100u);
    ASSERT_EQ(file.strides.size(), 2u);
    EXPECT_EQ(file.strides[0], makeStride(100));
    EXPECT_EQ(file.strides[1].faults, 0x5555u);
    EXPECT_EQ(file.strides[1].cycle, 200u);
}

TEST_F(DigestLedgerFileTest, CorruptedFoldRejected)
{
    DigestParams params;
    params.enabled = true;
    params.interval = 100;
    params.jsonlPath = path_;
    {
        DigestLedger ledger(params);
        ledger.writeHeader("fp");
        ledger.record(makeStride(100));
    }
    // Flip one hex digit of the recorded global digest; the stored
    // fold no longer matches, so the ledger must refuse to load.
    std::ifstream in(path_);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    in.close();
    const std::size_t pos = all.find("1111");
    ASSERT_NE(pos, std::string::npos);
    all[pos] = '2';
    std::ofstream(path_, std::ios::trunc) << all;

    LedgerFile file;
    std::string err;
    EXPECT_FALSE(loadDigestLedger(path_, &file, &err));
    EXPECT_NE(err.find("fold"), std::string::npos) << err;
}

TEST_F(DigestLedgerFileTest, MissingFileReportsError)
{
    LedgerFile file;
    std::string err;
    EXPECT_FALSE(loadDigestLedger(
        (dir_ / "does-not-exist.jsonl").string(), &file, &err));
    EXPECT_FALSE(err.empty());
}

TEST_F(DigestLedgerFileTest, ForeignRecordTypesTolerated)
{
    // Ledgers may share a JSONL stream with other observers; lines of
    // other types are skipped, not errors.
    DigestParams params;
    params.enabled = true;
    params.interval = 100;
    params.jsonlPath = path_;
    {
        DigestLedger ledger(params);
        ledger.writeHeader("fp");
        ledger.record(makeStride(100));
    }
    std::ofstream(path_, std::ios::app)
        << "{\"type\": \"heartbeat\", \"cycle\": 150}\n";

    LedgerFile file;
    std::string err;
    ASSERT_TRUE(loadDigestLedger(path_, &file, &err)) << err;
    EXPECT_EQ(file.strides.size(), 1u);
}

std::vector<DigestStride>
strideSeq(Cycle interval, std::size_t n)
{
    std::vector<DigestStride> v;
    for (std::size_t i = 1; i <= n; ++i)
        v.push_back(makeStride(interval * static_cast<Cycle>(i)));
    return v;
}

TEST(CompareStridesTest, IdenticalAndPrefixAgree)
{
    const auto a = strideSeq(100, 5);
    auto b = a;
    DigestDivergence d = compareStrides(a, b);
    EXPECT_TRUE(d.comparable);
    EXPECT_FALSE(d.diverged);
    EXPECT_EQ(d.stridesCompared, 5u);

    // A shorter run is a prefix, not a divergence.
    b.pop_back();
    d = compareStrides(a, b);
    EXPECT_TRUE(d.comparable);
    EXPECT_FALSE(d.diverged);
    EXPECT_EQ(d.stridesCompared, 4u);
}

TEST(CompareStridesTest, FirstDivergenceAttributed)
{
    const auto a = strideSeq(100, 5);
    auto b = a;
    b[2].routers[1] ^= 1; // diverge at cycle 300
    b[3].global ^= 1;     // later damage must not mask the first
    const DigestDivergence d = compareStrides(a, b);
    ASSERT_TRUE(d.comparable);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 300u);
    EXPECT_EQ(d.lastAgreeCycle, 200);
    ASSERT_EQ(d.components.size(), 1u);
    EXPECT_EQ(d.components[0], "router:1");
}

TEST(CompareStridesTest, DivergenceAtFirstStrideHasNoAgreeCycle)
{
    const auto a = strideSeq(100, 2);
    auto b = a;
    b[0].sources ^= 1;
    const DigestDivergence d = compareStrides(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 100u);
    EXPECT_EQ(d.lastAgreeCycle, -1);
}

TEST(CompareStridesTest, CycleMisalignmentIsNotComparable)
{
    const auto a = strideSeq(100, 3);
    const auto b = strideSeq(200, 3);
    const DigestDivergence d = compareStrides(a, b);
    EXPECT_FALSE(d.comparable);
    EXPECT_FALSE(d.error.empty());
}

TEST(CompareStridesTest, ResumedLedgerPairsFromFirstSharedCycle)
{
    // An 8x8 run digesting every 500 cycles writes strides 500..10000;
    // its resume from a cycle-3,700 checkpoint writes 4000..10000.
    const auto ref = strideSeq(500, 20);
    const std::vector<DigestStride> resumed(ref.begin() + 7, ref.end());
    for (const bool resumed_is_b : {true, false}) {
        const DigestDivergence d = resumed_is_b
                                       ? compareStrides(ref, resumed)
                                       : compareStrides(resumed, ref);
        ASSERT_TRUE(d.comparable) << d.error;
        EXPECT_FALSE(d.diverged);
        EXPECT_EQ(d.firstComparedCycle, 4000);
        EXPECT_EQ(d.stridesCompared, 13u);
        EXPECT_EQ(d.lastAgreeCycle, 10000);
    }

    auto damaged = resumed;
    damaged[2].nics[0] ^= 1; // cycle 5000
    const DigestDivergence d = compareStrides(ref, damaged);
    ASSERT_TRUE(d.comparable) << d.error;
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.cycle, 5000u);
    EXPECT_EQ(d.lastAgreeCycle, 4500);
    EXPECT_EQ(d.stridesCompared, 3u);
}

TEST(CompareStridesTest, OverlapMustAlign)
{
    // No cycle in common: nothing was compared, which is not a pass.
    const auto early = strideSeq(100, 3); // 100..300
    auto late = strideSeq(100, 6);
    late.erase(late.begin(), late.begin() + 3); // 400..600
    DigestDivergence d = compareStrides(early, late);
    EXPECT_FALSE(d.comparable);
    EXPECT_NE(d.error.find("no stride cycle"), std::string::npos)
        << d.error;

    // A later start that no stride of the other ledger holds.
    const auto tail = strideSeq(100, 3); // 100..300
    std::vector<DigestStride> offset = {makeStride(150), makeStride(250)};
    d = compareStrides(tail, offset);
    EXPECT_FALSE(d.comparable);
    EXPECT_NE(d.error.find("misaligned"), std::string::npos) << d.error;

    // An empty ledger (a run shorter than one interval) compares
    // nothing and passes, as before.
    d = compareStrides(tail, {});
    EXPECT_TRUE(d.comparable);
    EXPECT_EQ(d.stridesCompared, 0u);
    EXPECT_EQ(d.firstComparedCycle, -1);
}

TEST(CompareLedgersTest, IntervalMismatchIsNotComparable)
{
    LedgerFile a, b;
    a.interval = 100;
    b.interval = 200;
    a.strides = strideSeq(100, 2);
    b.strides = strideSeq(200, 2);
    const DigestDivergence d = compareLedgers(a, b);
    EXPECT_FALSE(d.comparable);
    EXPECT_NE(d.error.find("interval"), std::string::npos)
        << d.error;
}

TEST(CompareLedgersTest, FingerprintDifferenceTolerated)
{
    // Kernel-A vs kernel-B ledgers legitimately differ in their
    // fingerprints (sched=...); comparison is still meaningful.
    LedgerFile a, b;
    a.fingerprint = "sched=alwaystick";
    b.fingerprint = "sched=activity";
    a.interval = b.interval = 100;
    a.strides = b.strides = strideSeq(100, 3);
    const DigestDivergence d = compareLedgers(a, b);
    EXPECT_TRUE(d.comparable);
    EXPECT_FALSE(d.diverged);
}

} // namespace
} // namespace nox
