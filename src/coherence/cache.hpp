/**
 * @file
 * Set-associative cache model with LRU replacement, used for the
 * per-tile L1 and L2 of the application-traffic generator.
 */

#ifndef NOX_COHERENCE_CACHE_HPP
#define NOX_COHERENCE_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nox {

/** Line-granular set-associative cache (tags only; no data). */
class SetAssocCache
{
  public:
    /** Result of inserting a line. */
    struct Insert
    {
        bool evicted = false;
        std::uint64_t victimLine = 0;
        bool victimDirty = false;
    };

    /**
     * @param size_kb total capacity
     * @param ways associativity
     * @param line_bytes line size (addresses are byte addresses)
     */
    SetAssocCache(int size_kb, int ways, int line_bytes);

    /** Line address (address / lineBytes) of a byte address. */
    std::uint64_t lineOf(std::uint64_t byte_addr) const;

    /** Probe for a line; updates LRU on hit. */
    bool lookup(std::uint64_t line);

    /** Probe without touching LRU state. */
    bool contains(std::uint64_t line) const;

    /** Insert a line (must not be present), possibly evicting LRU. */
    Insert insert(std::uint64_t line, bool dirty);

    /** Mark a present line dirty; returns false if absent. */
    bool markDirty(std::uint64_t line);

    /** Clear a present line's dirty bit (e.g. after a sharing
     *  writeback); returns false if absent. */
    bool clearDirty(std::uint64_t line);

    /** Is a present line dirty? */
    bool isDirty(std::uint64_t line) const;

    /** Remove a line if present; returns true if it was there. */
    bool invalidate(std::uint64_t line);

    int numSets() const { return numSets_; }
    int ways() const { return ways_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** One way: the line address tagged with the valid and dirty
     *  flags in its top bits, plus the LRU stamp. */
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
    };
    static constexpr std::uint64_t kValid = 1ULL << 63;
    static constexpr std::uint64_t kDirty = 1ULL << 62;

    /** Index in tags_ of the first way of @p line's set. */
    std::size_t setBase(std::uint64_t line) const;

    /** The valid way holding @p line, or nullptr. */
    Way *find(std::uint64_t line);
    const Way *find(std::uint64_t line) const;

    int lineBytes_;
    int numSets_;
    int ways_;
    std::vector<Way> tags_; ///< numSets_ x ways_, set-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace nox

#endif // NOX_COHERENCE_CACHE_HPP
