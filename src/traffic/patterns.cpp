#include "traffic/patterns.hpp"

#include <bit>

#include "common/log.hpp"

namespace nox {

PatternKind
parsePattern(const std::string &name)
{
    if (name == "uniform")
        return PatternKind::UniformRandom;
    if (name == "transpose")
        return PatternKind::Transpose;
    if (name == "bitcomp")
        return PatternKind::BitComplement;
    if (name == "bitrev")
        return PatternKind::BitReverse;
    if (name == "shuffle")
        return PatternKind::Shuffle;
    if (name == "tornado")
        return PatternKind::Tornado;
    if (name == "neighbor")
        return PatternKind::Neighbor;
    if (name == "hotspot")
        return PatternKind::Hotspot;
    fatal("unknown traffic pattern: '", name, "'");
}

const char *
patternName(PatternKind kind)
{
    switch (kind) {
      case PatternKind::UniformRandom: return "uniform";
      case PatternKind::Transpose: return "transpose";
      case PatternKind::BitComplement: return "bitcomp";
      case PatternKind::BitReverse: return "bitrev";
      case PatternKind::Shuffle: return "shuffle";
      case PatternKind::Tornado: return "tornado";
      case PatternKind::Neighbor: return "neighbor";
      case PatternKind::Hotspot: return "hotspot";
    }
    return "?";
}

const char *
patternMeshNeed(PatternKind kind, const Mesh &mesh)
{
    if (kind == PatternKind::UniformRandom || kind == PatternKind::Hotspot)
        return nullptr;
    if (mesh.concentration() > 1)
        return "concentration=1";
    if (kind == PatternKind::Transpose && mesh.width() != mesh.height())
        return "a square mesh";
    const bool bits = kind == PatternKind::BitComplement ||
                      kind == PatternKind::BitReverse ||
                      kind == PatternKind::Shuffle;
    if (bits && !std::has_single_bit(static_cast<unsigned>(mesh.numNodes())))
        return "a power-of-two node count";
    return nullptr;
}

DestinationPattern::DestinationPattern(PatternKind kind, const Mesh &mesh,
                                       double hotspot_fraction)
    : kind_(kind), mesh_(mesh), hotspotFraction_(hotspot_fraction)
{
    NOX_ASSERT(!patternMeshNeed(kind, mesh), patternName(kind),
               " needs ", patternMeshNeed(kind, mesh));
    indexBits_ =
        std::bit_width(static_cast<unsigned>(mesh.numNodes())) - 1;
    hotNode_ = mesh.nodeAt(
        {mesh.width() / 2, mesh.height() / 2});
}

bool
DestinationPattern::isDeterministic() const
{
    return kind_ != PatternKind::UniformRandom &&
           kind_ != PatternKind::Hotspot;
}

NodeId
DestinationPattern::pick(NodeId src, Rng &rng) const
{
    switch (kind_) {
      case PatternKind::UniformRandom: {
        NodeId dst = src;
        while (dst == src) {
            dst = static_cast<NodeId>(rng.nextBounded(
                static_cast<std::uint64_t>(mesh_.numNodes())));
        }
        return dst;
      }
      case PatternKind::Hotspot: {
        if (src != hotNode_ && rng.nextBernoulli(hotspotFraction_))
            return hotNode_;
        NodeId dst = src;
        while (dst == src) {
            dst = static_cast<NodeId>(rng.nextBounded(
                static_cast<std::uint64_t>(mesh_.numNodes())));
        }
        return dst;
      }
      default: {
        const NodeId dst = deterministicDest(src);
        return dst == src ? kInvalidNode : dst;
      }
    }
}

NodeId
DestinationPattern::deterministicDest(NodeId src) const
{
    const Coord c = mesh_.coordOf(src);
    const int k = mesh_.width();
    switch (kind_) {
      case PatternKind::Transpose: // (x,y) -> (y,x)
        return mesh_.nodeAt({c.y, c.x});
      case PatternKind::BitComplement:
        return mesh_.nodeAt(
            {mesh_.width() - 1 - c.x, mesh_.height() - 1 - c.y});
      case PatternKind::BitReverse: {
        unsigned v = static_cast<unsigned>(src);
        unsigned r = 0;
        for (int i = 0; i < indexBits_; ++i) {
            r = (r << 1) | (v & 1u);
            v >>= 1;
        }
        return static_cast<NodeId>(r);
      }
      case PatternKind::Shuffle: {
        const auto n = static_cast<unsigned>(mesh_.numNodes());
        const unsigned v = static_cast<unsigned>(src);
        return static_cast<NodeId>(
            ((v << 1) | (v >> (indexBits_ - 1))) & (n - 1));
      }
      case PatternKind::Tornado:
        // Half-way around the X dimension.
        return mesh_.nodeAt({(c.x + (k + 1) / 2 - 1) % k, c.y});
      case PatternKind::Neighbor:
        return mesh_.nodeAt({(c.x + 1) % k, c.y});
      default:
        panic("deterministicDest on a random pattern");
    }
}

} // namespace nox
