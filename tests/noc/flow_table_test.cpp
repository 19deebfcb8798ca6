/**
 * @file
 * FlowTable: the dense per-flow store behind the network's sequence
 * counters and the transport's duplicate filters. Its stream layout
 * (count, then flowKey + value per flow in ascending key order) is
 * the snapshot and digest format, so it is pinned byte for byte, and
 * a malformed key must fail as a SnapshotError.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "noc/flow_table.hpp"
#include "snapshot/io.hpp"

namespace nox {
namespace {

void
writeSeq(snap::Writer &w, std::uint32_t v)
{
    w.u32(v);
}

void
readSeq(snap::Reader &r, std::uint32_t &v)
{
    v = r.u32();
}

TEST(FlowTable, FirstUseValueInitializesAndFindSeesOnlyUsedFlows)
{
    FlowTable<std::uint32_t> t(4);
    EXPECT_EQ(t.find(1, 2), nullptr);
    EXPECT_EQ(t(1, 2)++, 0u);
    EXPECT_EQ(t(1, 2), 1u);
    ASSERT_NE(t.find(1, 2), nullptr);
    EXPECT_EQ(*t.find(1, 2), 1u);
    EXPECT_EQ(t.find(2, 1), nullptr);
}

TEST(FlowTable, SerializesInAscendingKeyOrder)
{
    // Touched out of order; the stream lists (0,3) < (2,0) < (3,1) by
    // flowKey, src in the high word.
    FlowTable<std::uint32_t> t(4);
    t(3, 1) = 7;
    t(0, 3) = 5;
    t(2, 0) = 6;
    snap::Writer w;
    t.serialize(w, writeSeq);

    snap::Writer want;
    want.u64(3);
    for (const auto &[key, v] :
         {std::pair<std::uint64_t, std::uint32_t>{0x0000000000000003ULL, 5},
          {0x0000000200000000ULL, 6},
          {0x0000000300000001ULL, 7}}) {
        want.u64(key);
        want.u32(v);
    }
    ASSERT_EQ(w.size(), want.size());
    EXPECT_EQ(std::vector<std::uint8_t>(w.data(), w.data() + w.size()),
              std::vector<std::uint8_t>(want.data(),
                                        want.data() + want.size()));

    FlowTable<std::uint32_t> back(4);
    back(1, 1) = 9; // restore replaces, it does not merge
    snap::Reader r(w.data(), w.size());
    back.restore(r, 4, readSeq);
    r.expectEnd();
    EXPECT_EQ(back.find(1, 1), nullptr);
    ASSERT_NE(back.find(2, 0), nullptr);
    EXPECT_EQ(*back.find(2, 0), 6u);
    snap::Writer again;
    back.serialize(again, writeSeq);
    EXPECT_EQ(std::vector<std::uint8_t>(again.data(),
                                        again.data() + again.size()),
              std::vector<std::uint8_t>(w.data(), w.data() + w.size()));
}

TEST(FlowTable, RestoreRejectsBadKeys)
{
    const auto restoreKeys = [](std::vector<std::uint64_t> keys) {
        snap::Writer w;
        w.u64(keys.size());
        for (const std::uint64_t k : keys) {
            w.u64(k);
            w.u32(1);
        }
        FlowTable<std::uint32_t> t(4);
        snap::Reader r(w.data(), w.size());
        t.restore(r, 4, readSeq);
    };
    EXPECT_NO_THROW(restoreKeys({flowKey(0, 1), flowKey(3, 2)}));
    // Descending and duplicate keys: a desynced or hand-edited stream.
    EXPECT_THROW(restoreKeys({flowKey(3, 2), flowKey(0, 1)}),
                 snap::SnapshotError);
    EXPECT_THROW(restoreKeys({flowKey(1, 1), flowKey(1, 1)}),
                 snap::SnapshotError);
    // Either half of the key naming a node the table does not have.
    EXPECT_THROW(restoreKeys({flowKey(4, 0)}), snap::SnapshotError);
    EXPECT_THROW(restoreKeys({flowKey(0, 4)}), snap::SnapshotError);
    EXPECT_THROW(restoreKeys({0xFFFFFFFFFFFFFFFFULL}), snap::SnapshotError);
}

} // namespace
} // namespace nox
