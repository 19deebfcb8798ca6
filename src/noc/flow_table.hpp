/**
 * @file
 * Dense per-flow state: one slot per ordered (src, dest) node pair.
 *
 * Flow-keyed state — the network's per-flow sequence counters and the
 * transport's duplicate filters — lives in a flat array of
 * nodes x nodes slots (4,096 on an 8x8 mesh), sized once at
 * construction, with a presence bit per slot. A lookup is an index
 * computation. Slot order is flow-key order (flowKey() below), so
 * walking the presence bits in order serializes the table in
 * ascending key order without a sort: the count / key / value layout
 * the snapshot stream has always used.
 */

#ifndef NOX_NOC_FLOW_TABLE_HPP
#define NOX_NOC_FLOW_TABLE_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "noc/types.hpp"
#include "snapshot/io.hpp"

namespace nox {

/** The 64-bit key of flow (src, dest) — src in the high word — as the
 *  snapshot stream and the per-flow reports name it. */
inline std::uint64_t
flowKey(NodeId src, NodeId dest)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dest);
}

template <typename T>
class FlowTable
{
  public:
    explicit FlowTable(int nodes)
        : nodes_(static_cast<std::size_t>(nodes)),
          slots_(nodes_ * nodes_),
          present_((slots_.size() + 63) / 64, 0)
    {
    }

    /** Flow (src, dest)'s entry, value-initialized on first use. */
    T &
    operator()(NodeId src, NodeId dest)
    {
        return insert(index(src, dest));
    }

    /** Flow (src, dest)'s entry, or nullptr if it has none. */
    const T *
    find(NodeId src, NodeId dest) const
    {
        const std::size_t i = index(src, dest);
        const bool present = (present_[i / 64] >> (i % 64)) & 1u;
        return present ? &slots_[i] : nullptr;
    }

    /** Entry count, then each entry's flowKey and
     *  @p write_value(w, value), in ascending key order. */
    template <typename WriteValue>
    void
    serialize(snap::Writer &w, WriteValue &&write_value) const
    {
        std::uint64_t count = 0;
        for (const std::uint64_t word : present_)
            count += static_cast<std::uint64_t>(std::popcount(word));
        w.u64(count);
        for (std::size_t word = 0; word < present_.size(); ++word) {
            for (std::uint64_t bits = present_[word]; bits != 0;
                 bits &= bits - 1) {
                const std::size_t i =
                    word * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                w.u64(flowKey(static_cast<NodeId>(i / nodes_),
                              static_cast<NodeId>(i % nodes_)));
                write_value(w, slots_[i]);
            }
        }
    }

    /**
     * Replace the contents with a serialize() image, reading each
     * value with @p read_value(r, value) (whose encoding takes at
     * least @p min_value_bytes). A key naming a node outside the
     * table, or not above the previous key, is a SnapshotError.
     */
    template <typename ReadValue>
    void
    restore(snap::Reader &r, std::size_t min_value_bytes,
            ReadValue &&read_value)
    {
        std::fill(present_.begin(), present_.end(), 0);
        const std::size_t n = r.count(8 + min_value_bytes);
        std::size_t next = 0; // lowest slot the next key may name
        for (std::size_t k = 0; k < n; ++k) {
            const std::uint64_t key = r.u64();
            const std::uint64_t src = key >> 32;
            const std::uint64_t dest = key & 0xFFFFFFFFu;
            if (src >= nodes_ || dest >= nodes_)
                r.fail("flow key names a node out of range");
            const std::size_t i =
                static_cast<std::size_t>(src) * nodes_ +
                static_cast<std::size_t>(dest);
            if (i < next)
                r.fail("flow keys not in ascending order");
            next = i + 1;
            read_value(r, insert(i));
        }
    }

  private:
    std::size_t
    index(NodeId src, NodeId dest) const
    {
        NOX_ASSERT(static_cast<std::size_t>(src) < nodes_ &&
                       static_cast<std::size_t>(dest) < nodes_,
                   "flow (", src, ", ", dest, ") outside a ", nodes_,
                   "-node table");
        return static_cast<std::size_t>(src) * nodes_ +
               static_cast<std::size_t>(dest);
    }

    T &
    insert(std::size_t i)
    {
        std::uint64_t &word = present_[i / 64];
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        if (!(word & bit)) {
            word |= bit;
            slots_[i] = T{};
        }
        return slots_[i];
    }

    std::size_t nodes_;
    std::vector<T> slots_;
    std::vector<std::uint64_t> present_;
};

/** A FlowTable as one line of a snapshot layout: serialize() on save,
 *  restore() on load, each value through @p each(ar, value). */
template <typename Ar, typename Table, typename Each = snap::IoEach>
void
ioFlowTable(Ar &ar, Table &table, std::size_t min_value_bytes,
            Each each = {})
{
    if constexpr (Ar::kReading)
        table.restore(ar, min_value_bytes, each);
    else
        table.serialize(ar, each);
}

} // namespace nox

#endif // NOX_NOC_FLOW_TABLE_HPP
