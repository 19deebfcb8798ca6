/**
 * @file
 * Standard synthetic traffic patterns for mesh evaluation (§5.1 of
 * the paper cites the single-flit patterns of Dally & Towles [4]).
 *
 * Deterministic patterns map each source to a fixed destination; the
 * random patterns (uniform, hotspot) draw per packet. Sources whose
 * deterministic destination equals themselves (e.g. the diagonal under
 * transpose) inject nothing, following common practice.
 */

#ifndef NOX_TRAFFIC_PATTERNS_HPP
#define NOX_TRAFFIC_PATTERNS_HPP

#include <string>

#include "common/rng.hpp"
#include "noc/topology.hpp"

namespace nox {

/** Supported synthetic traffic patterns. */
enum class PatternKind : std::uint8_t {
    UniformRandom = 0,
    Transpose,
    BitComplement,
    BitReverse,
    Shuffle,
    Tornado,
    Neighbor,
    Hotspot,
};

/** Probability that a Hotspot source addresses the hot node in a
 *  synthetic run. */
inline constexpr double kHotspotFraction = 0.2;

/** Parse a pattern name ("uniform", "transpose", ...). */
PatternKind parsePattern(const std::string &name);

/** Display name of a pattern. */
const char *patternName(PatternKind kind);

/** What @p kind needs of @p mesh that it lacks (nullptr: nothing):
 *  every pattern but uniform and hotspot maps router coordinates, so
 *  needs concentration 1; transpose also a square mesh, and the bit
 *  patterns a power-of-two node count. */
const char *patternMeshNeed(PatternKind kind, const Mesh &mesh);

/** All patterns in presentation order. */
inline constexpr PatternKind kAllPatterns[] = {
    PatternKind::UniformRandom, PatternKind::Transpose,
    PatternKind::BitComplement, PatternKind::BitReverse,
    PatternKind::Shuffle,       PatternKind::Tornado,
    PatternKind::Neighbor,      PatternKind::Hotspot,
};

/** Destination chooser for one pattern on one mesh. */
class DestinationPattern
{
  public:
    /**
     * @param kind pattern to implement
     * @param mesh target topology (patternMeshNeed() asserted empty)
     * @param hotspot_fraction probability of addressing the hot node
     *        (Hotspot pattern only)
     */
    DestinationPattern(PatternKind kind, const Mesh &mesh,
                       double hotspot_fraction = kHotspotFraction);

    /**
     * Destination for a packet from @p src; kInvalidNode when this
     * source does not inject under a deterministic pattern (fixed
     * destination equal to itself).
     */
    NodeId pick(NodeId src, Rng &rng) const;

    /** True when pick() ignores the RNG. */
    bool isDeterministic() const;

    PatternKind kind() const { return kind_; }

    /** The hot node used by the Hotspot pattern (mesh centre). */
    NodeId hotNode() const { return hotNode_; }

  private:
    NodeId deterministicDest(NodeId src) const;

    PatternKind kind_;
    const Mesh &mesh_;
    double hotspotFraction_;
    NodeId hotNode_;
    int indexBits_;
};

} // namespace nox

#endif // NOX_TRAFFIC_PATTERNS_HPP
