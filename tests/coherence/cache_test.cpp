/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coherence/cache.hpp"
#include "common/rng.hpp"

namespace nox {
namespace {

TEST(Cache, GeometryDerivedFromParameters)
{
    // 32KB, 2-way, 64B lines -> 512 lines -> 256 sets (Table 1 L1).
    SetAssocCache l1(32, 2, 64);
    EXPECT_EQ(l1.numSets(), 256);
    EXPECT_EQ(l1.ways(), 2);

    // 256KB, 8-way, 64B lines -> 4096 lines -> 512 sets (Table 1 L2).
    SetAssocCache l2(256, 8, 64);
    EXPECT_EQ(l2.numSets(), 512);
    EXPECT_EQ(l2.ways(), 8);
}

TEST(Cache, LineOfDividesByLineSize)
{
    SetAssocCache c(32, 2, 64);
    EXPECT_EQ(c.lineOf(0), 0u);
    EXPECT_EQ(c.lineOf(63), 0u);
    EXPECT_EQ(c.lineOf(64), 1u);
    EXPECT_EQ(c.lineOf(6400), 100u);
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c(32, 2, 64);
    EXPECT_FALSE(c.lookup(42));
    c.insert(42, false);
    EXPECT_TRUE(c.lookup(42));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    SetAssocCache c(32, 2, 64); // 256 sets: lines n and n+256 collide
    c.insert(0, false);
    c.insert(256, false);
    // Touch 0 so 256 becomes LRU.
    EXPECT_TRUE(c.lookup(0));
    const auto v = c.insert(512, false);
    EXPECT_TRUE(v.evicted);
    EXPECT_EQ(v.victimLine, 256u);
    EXPECT_TRUE(c.contains(0));
    EXPECT_FALSE(c.contains(256));
}

TEST(Cache, EvictionReportsDirtyVictim)
{
    SetAssocCache c(32, 2, 64);
    c.insert(0, true);
    c.insert(256, false);
    c.lookup(256); // 0 becomes LRU
    const auto v = c.insert(512, false);
    EXPECT_TRUE(v.evicted);
    EXPECT_EQ(v.victimLine, 0u);
    EXPECT_TRUE(v.victimDirty);
}

TEST(Cache, DirtyBitLifecycle)
{
    SetAssocCache c(32, 2, 64);
    c.insert(7, false);
    EXPECT_FALSE(c.isDirty(7));
    EXPECT_TRUE(c.markDirty(7));
    EXPECT_TRUE(c.isDirty(7));
    EXPECT_TRUE(c.clearDirty(7));
    EXPECT_FALSE(c.isDirty(7));
    EXPECT_FALSE(c.markDirty(999)); // absent line
}

TEST(Cache, InvalidateRemovesLine)
{
    SetAssocCache c(32, 2, 64);
    c.insert(5, false);
    EXPECT_TRUE(c.invalidate(5));
    EXPECT_FALSE(c.contains(5));
    EXPECT_FALSE(c.invalidate(5));
}

TEST(Cache, NoEvictionWhileSetHasRoom)
{
    SetAssocCache c(256, 8, 64); // 8-way
    for (int i = 0; i < 8; ++i) {
        const auto v = c.insert(
            static_cast<std::uint64_t>(i) * 512, false);
        EXPECT_FALSE(v.evicted) << i;
    }
    const auto v = c.insert(8 * 512, false);
    EXPECT_TRUE(v.evicted);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarm)
{
    SetAssocCache c(32, 2, 64); // 512 lines
    for (std::uint64_t l = 0; l < 400; ++l)
        c.insert(l, false);
    for (std::uint64_t l = 0; l < 400; ++l)
        EXPECT_TRUE(c.lookup(l)) << l;
}

/** A plain model of the cache contract: per set, ways with separate
 *  valid and dirty flags and an LRU stamp; an insert fills the first
 *  invalid way, else evicts the first way with the oldest stamp. */
class ReferenceCache
{
  public:
    ReferenceCache(int sets, int ways)
        : sets_(static_cast<std::size_t>(sets),
                std::vector<Way>(static_cast<std::size_t>(ways)))
    {
    }

    bool
    lookup(std::uint64_t line)
    {
        Way *w = find(line);
        if (w)
            w->lastUse = ++clock_;
        return w != nullptr;
    }

    bool contains(std::uint64_t line) { return find(line) != nullptr; }

    SetAssocCache::Insert
    insert(std::uint64_t line, bool dirty)
    {
        auto &set = setOf(line);
        Way *victim = &set[0];
        for (Way &w : set) {
            if (!w.valid) {
                victim = &w;
                break;
            }
            if (w.lastUse < victim->lastUse)
                victim = &w;
        }
        SetAssocCache::Insert r;
        if (victim->valid) {
            r.evicted = true;
            r.victimLine = victim->line;
            r.victimDirty = victim->dirty;
        }
        *victim = Way{line, ++clock_, true, dirty};
        return r;
    }

    bool
    markDirty(std::uint64_t line)
    {
        Way *w = find(line);
        if (w) {
            w->dirty = true;
            w->lastUse = ++clock_;
        }
        return w != nullptr;
    }

    bool
    clearDirty(std::uint64_t line)
    {
        Way *w = find(line);
        if (w)
            w->dirty = false;
        return w != nullptr;
    }

    bool
    isDirty(std::uint64_t line)
    {
        const Way *w = find(line);
        return w && w->dirty;
    }

    bool
    invalidate(std::uint64_t line)
    {
        Way *w = find(line);
        if (w)
            w->valid = false;
        return w != nullptr;
    }

  private:
    struct Way
    {
        std::uint64_t line = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::vector<Way> &
    setOf(std::uint64_t line)
    {
        return sets_[line % sets_.size()];
    }

    Way *
    find(std::uint64_t line)
    {
        for (Way &w : setOf(line)) {
            if (w.valid && w.line == line)
                return &w;
        }
        return nullptr;
    }

    std::vector<std::vector<Way>> sets_;
    std::uint64_t clock_ = 0;
};

/** Random operation mix on a few heavily colliding lines (including
 *  lines with high address bits set): every return value, victim and
 *  counter must match the reference model. */
void
differential(int size_kb, int ways, std::uint64_t seed)
{
    SetAssocCache cache(size_kb, ways, 64);
    ReferenceCache ref(cache.numSets(), ways);
    Rng rng(seed);
    const auto sets = static_cast<std::uint64_t>(cache.numSets());
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (int i = 0; i < 50000; ++i) {
        // Two sets, 3 x ways candidate lines each.
        std::uint64_t line = rng.nextBounded(2) +
                             sets * rng.nextBounded(3 * ways);
        if (rng.nextBernoulli(0.25))
            line |= 1ULL << (40 + rng.nextBounded(22));
        SCOPED_TRACE(::testing::Message() << "op " << i << " line "
                                          << line);
        switch (rng.nextBounded(7)) {
          case 0: {
            const bool hit = ref.lookup(line);
            ASSERT_EQ(cache.lookup(line), hit);
            (hit ? hits : misses) += 1;
            break;
          }
          case 1:
          case 2: {
            if (ref.contains(line))
                break;
            const bool dirty = rng.nextBernoulli(0.5);
            const auto want = ref.insert(line, dirty);
            const auto got = cache.insert(line, dirty);
            ASSERT_EQ(got.evicted, want.evicted);
            ASSERT_EQ(got.victimLine, want.victimLine);
            ASSERT_EQ(got.victimDirty, want.victimDirty);
            break;
          }
          case 3:
            ASSERT_EQ(cache.markDirty(line), ref.markDirty(line));
            break;
          case 4:
            ASSERT_EQ(cache.clearDirty(line), ref.clearDirty(line));
            break;
          case 5:
            ASSERT_EQ(cache.isDirty(line), ref.isDirty(line));
            ASSERT_EQ(cache.contains(line), ref.contains(line));
            break;
          default:
            ASSERT_EQ(cache.invalidate(line), ref.invalidate(line));
            break;
        }
    }
    EXPECT_EQ(cache.hits(), hits);
    EXPECT_EQ(cache.misses(), misses);
}

TEST(Cache, MatchesReferenceModelTwoWay)
{
    differential(32, 2, 11); // Table 1 L1 geometry
}

TEST(Cache, MatchesReferenceModelEightWay)
{
    differential(256, 8, 12); // Table 1 L2 geometry
}

TEST(CacheDeathTest, DoubleInsertAborts)
{
    SetAssocCache c(32, 2, 64);
    c.insert(1, false);
    EXPECT_DEATH(c.insert(1, false), "already-present");
}

} // namespace
} // namespace nox
