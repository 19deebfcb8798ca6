#include "coherence/cache.hpp"

#include <bit>
#include <utility>

#include "common/log.hpp"

namespace nox {

SetAssocCache::SetAssocCache(int size_kb, int ways, int line_bytes)
    : lineBytes_(line_bytes), ways_(ways)
{
    NOX_ASSERT(size_kb > 0 && ways > 0 && line_bytes > 0,
               "invalid cache geometry");
    const long long lines =
        static_cast<long long>(size_kb) * 1024 / line_bytes;
    NOX_ASSERT(lines % ways == 0, "capacity not divisible by ways");
    numSets_ = static_cast<int>(lines / ways);
    NOX_ASSERT(std::has_single_bit(static_cast<unsigned>(numSets_)),
               "set count must be a power of two, got ", numSets_);
    tags_.assign(static_cast<std::size_t>(lines), Way{});
}

std::uint64_t
SetAssocCache::lineOf(std::uint64_t byte_addr) const
{
    return byte_addr / static_cast<std::uint64_t>(lineBytes_);
}

std::size_t
SetAssocCache::setBase(std::uint64_t line) const
{
    const std::uint64_t set =
        line & static_cast<std::uint64_t>(numSets_ - 1);
    return static_cast<std::size_t>(set) *
           static_cast<std::size_t>(ways_);
}

const SetAssocCache::Way *
SetAssocCache::find(std::uint64_t line) const
{
    const Way *set = tags_.data() + setBase(line);
    const std::uint64_t want = line | kValid;
    for (int w = 0; w < ways_; ++w) {
        if ((set[w].tag & ~kDirty) == want)
            return &set[w];
    }
    return nullptr;
}

SetAssocCache::Way *
SetAssocCache::find(std::uint64_t line)
{
    return const_cast<Way *>(std::as_const(*this).find(line));
}

bool
SetAssocCache::lookup(std::uint64_t line)
{
    if (Way *w = find(line)) {
        w->lastUse = ++useClock_;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

bool
SetAssocCache::contains(std::uint64_t line) const
{
    return find(line) != nullptr;
}

SetAssocCache::Insert
SetAssocCache::insert(std::uint64_t line, bool dirty)
{
    NOX_ASSERT((line & (kValid | kDirty)) == 0,
               "line address collides with the tag flags");
    NOX_ASSERT(!contains(line), "inserting already-present line");
    Way *set = tags_.data() + setBase(line);
    Way *victim = set;
    for (Way *w = set; w != set + ways_; ++w) {
        if (!(w->tag & kValid)) {
            victim = w;
            break;
        }
        if (w->lastUse < victim->lastUse)
            victim = w;
    }

    Insert result;
    if (victim->tag & kValid) {
        result.evicted = true;
        result.victimLine = victim->tag & ~(kValid | kDirty);
        result.victimDirty = (victim->tag & kDirty) != 0;
    }
    victim->tag = line | kValid | (dirty ? kDirty : 0);
    victim->lastUse = ++useClock_;
    return result;
}

bool
SetAssocCache::markDirty(std::uint64_t line)
{
    Way *w = find(line);
    if (!w)
        return false;
    w->tag |= kDirty;
    w->lastUse = ++useClock_;
    return true;
}

bool
SetAssocCache::clearDirty(std::uint64_t line)
{
    Way *w = find(line);
    if (!w)
        return false;
    w->tag &= ~kDirty;
    return true;
}

bool
SetAssocCache::isDirty(std::uint64_t line) const
{
    const Way *w = find(line);
    return w && (w->tag & kDirty) != 0;
}

bool
SetAssocCache::invalidate(std::uint64_t line)
{
    Way *w = find(line);
    if (!w)
        return false;
    w->tag = 0;
    return true;
}

} // namespace nox
