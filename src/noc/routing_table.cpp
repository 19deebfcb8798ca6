#include "noc/routing_table.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/log.hpp"

namespace nox {

namespace {

constexpr int kMeshPorts = 4; ///< N, E, S, W
constexpr int kUnreach = std::numeric_limits<int>::max();

std::size_t
linkIndex(NodeId router, int port)
{
    return static_cast<std::size_t>(router) *
               static_cast<std::size_t>(kMeshPorts) +
           static_cast<std::size_t>(port);
}

} // namespace

// ---------------------------------------------------------------- FaultMap

FaultMap::FaultMap(const Mesh &mesh)
    : mesh_(mesh),
      routerDead_(static_cast<std::size_t>(mesh.numRouters()), 0),
      linkDead_(static_cast<std::size_t>(mesh.numRouters()) *
                    kMeshPorts,
                0)
{
}

bool
FaultMap::linkDead(NodeId router, int port) const
{
    NOX_ASSERT(port >= kPortNorth && port <= kPortWest,
               "linkDead on non-mesh port ", port);
    if (routerDead(router) ||
        linkDead_[linkIndex(router, port)] != 0)
        return true;
    const NodeId nb = mesh_.neighbor(router, port);
    return nb != kInvalidNode && routerDead(nb);
}

bool
FaultMap::killLink(NodeId router, int port)
{
    if (port < kPortNorth || port > kPortWest)
        return false;
    if (routerDead(router))
        return false;
    const NodeId nb = mesh_.neighbor(router, port);
    if (nb == kInvalidNode || routerDead(nb))
        return false;
    if (linkDead_[linkIndex(router, port)] != 0)
        return false;
    linkDead_[linkIndex(router, port)] = 1;
    linkDead_[linkIndex(nb, Mesh::oppositePort(port))] = 1;
    ++faults_;
    return true;
}

bool
FaultMap::killRouter(NodeId router)
{
    if (routerDead(router))
        return false;
    // The router's links go down *implicitly* (derived in linkDead()),
    // so a later heal of the router lifts exactly them and no more.
    routerDead_[static_cast<std::size_t>(router)] = 1;
    ++faults_;
    return true;
}

bool
FaultMap::healLink(NodeId router, int port)
{
    if (port < kPortNorth || port > kPortWest)
        return false;
    if (linkDead_[linkIndex(router, port)] == 0)
        return false;
    const NodeId nb = mesh_.neighbor(router, port);
    NOX_ASSERT(nb != kInvalidNode, "explicit kill on an edge port");
    linkDead_[linkIndex(router, port)] = 0;
    linkDead_[linkIndex(nb, Mesh::oppositePort(port))] = 0;
    --faults_;
    NOX_ASSERT(faults_ >= 0, "fault count underflow");
    return true;
}

bool
FaultMap::healRouter(NodeId router)
{
    if (!routerDead(router))
        return false;
    routerDead_[static_cast<std::size_t>(router)] = 0;
    --faults_;
    NOX_ASSERT(faults_ >= 0, "fault count underflow");
    return true;
}

std::vector<NodeId>
FaultMap::deadRouters() const
{
    std::vector<NodeId> out;
    for (std::size_t r = 0; r < routerDead_.size(); ++r) {
        if (routerDead_[r])
            out.push_back(static_cast<NodeId>(r));
    }
    return out;
}

std::vector<std::pair<NodeId, int>>
FaultMap::explicitDeadLinks() const
{
    std::vector<std::pair<NodeId, int>> out;
    const auto nr = static_cast<NodeId>(routerDead_.size());
    for (NodeId r = 0; r < nr; ++r) {
        for (int p = kPortNorth; p <= kPortWest; ++p) {
            if (linkDead_[linkIndex(r, p)] == 0)
                continue;
            const NodeId nb = mesh_.neighbor(r, p);
            if (nb != kInvalidNode && r < nb)
                out.emplace_back(r, p);
        }
    }
    return out;
}

int
FaultMap::deadRouterCount() const
{
    int n = 0;
    for (const std::uint8_t d : routerDead_)
        n += d != 0;
    return n;
}

int
FaultMap::explicitDeadLinkCount() const
{
    return static_cast<int>(explicitDeadLinks().size());
}

// ------------------------------------------------------------ RoutingTable

RoutingTable::RoutingTable(const FaultMap &map)
    : mesh_(map.mesh()), map_(map), numRouters_(mesh_.numRouters()),
      table_(static_cast<std::size_t>(numRouters_) *
                 static_cast<std::size_t>(numRouters_),
             -1)
{
    rebuild();
}

void
RoutingTable::rebuild()
{
    if (map_.anyFault())
        buildUpDown();
    else
        buildFaultFree();
    ++rebuilds_;
    NOX_ASSERT(dependencyGraphAcyclic(),
               "routing table has a channel-dependency cycle");
}

void
RoutingTable::buildFaultFree()
{
    upDown_ = false;
    // Fill straight from dorRoute(): lookup() is then bit-identical
    // to the paper's function-pointer baseline.
    const int conc = mesh_.concentration();
    for (NodeId r = 0; r < numRouters_; ++r) {
        for (NodeId dr = 0; dr < numRouters_; ++dr) {
            const std::size_t at =
                static_cast<std::size_t>(r) *
                    static_cast<std::size_t>(numRouters_) +
                static_cast<std::size_t>(dr);
            if (dr == r) {
                table_[at] = -1; // lookup() resolves local ports
                continue;
            }
            table_[at] =
                static_cast<std::int8_t>(dorRoute(mesh_, r, dr * conc));
        }
    }
}

void
RoutingTable::buildUpDown()
{
    const int nr = numRouters_;
    const auto liveLink = [&](NodeId u, int p) {
        return mesh_.neighbor(u, p) != kInvalidNode &&
               !map_.linkDead(u, p);
    };

    // BFS spanning forest: per connected component, levels from the
    // lowest-id live router. key(u) = (level, id) lexicographic;
    // a channel u->v is "up" iff key(v) < key(u). The levels persist
    // (level_) so forbiddenTurn() can classify stale traffic.
    upDown_ = true;
    level_.assign(static_cast<std::size_t>(nr), -1);
    std::vector<int> &level = level_;
    std::deque<NodeId> queue;
    for (NodeId root = 0; root < nr; ++root) {
        if (map_.routerDead(root) ||
            level[static_cast<std::size_t>(root)] >= 0)
            continue;
        level[static_cast<std::size_t>(root)] = 0;
        queue.push_back(root);
        while (!queue.empty()) {
            const NodeId u = queue.front();
            queue.pop_front();
            for (int p = kPortNorth; p <= kPortWest; ++p) {
                if (!liveLink(u, p))
                    continue;
                const NodeId v = mesh_.neighbor(u, p);
                if (level[static_cast<std::size_t>(v)] >= 0)
                    continue;
                level[static_cast<std::size_t>(v)] =
                    level[static_cast<std::size_t>(u)] + 1;
                queue.push_back(v);
            }
        }
    }
    const auto key = [&](NodeId u) {
        return (static_cast<std::uint64_t>(
                    level[static_cast<std::size_t>(u)])
                << 32) |
               static_cast<std::uint32_t>(u);
    };

    // Live routers in ascending key order: up channels strictly
    // decrease the key, so relaxing in this order sees final values.
    std::vector<NodeId> byKey;
    byKey.reserve(static_cast<std::size_t>(nr));
    for (NodeId u = 0; u < nr; ++u) {
        if (!map_.routerDead(u))
            byKey.push_back(u);
    }
    std::sort(byKey.begin(), byKey.end(),
              [&](NodeId a, NodeId b) { return key(a) < key(b); });

    std::vector<int> total(static_cast<std::size_t>(nr));
    std::vector<std::uint8_t> inDown(static_cast<std::size_t>(nr));
    for (NodeId d = 0; d < nr; ++d) {
        std::int8_t *row = nullptr; // filled per source below
        if (map_.routerDead(d)) {
            for (NodeId u = 0; u < nr; ++u) {
                table_[static_cast<std::size_t>(u) *
                           static_cast<std::size_t>(nr) +
                       static_cast<std::size_t>(d)] = -1;
            }
            continue;
        }

        // Phase 1 — the "down set": routers that reach d using down
        // channels only, with their down-path distance. A router in
        // the set always forwards down (to another member), so every
        // path suffix after the first down move stays down-only.
        std::fill(total.begin(), total.end(), kUnreach);
        std::fill(inDown.begin(), inDown.end(), 0);
        total[static_cast<std::size_t>(d)] = 0;
        inDown[static_cast<std::size_t>(d)] = 1;
        queue.clear();
        queue.push_back(d);
        while (!queue.empty()) {
            const NodeId v = queue.front();
            queue.pop_front();
            for (int p = kPortNorth; p <= kPortWest; ++p) {
                if (!liveLink(v, p))
                    continue;
                const NodeId u = mesh_.neighbor(v, p);
                // Predecessor u whose channel u->v is down.
                if (key(u) >= key(v) ||
                    inDown[static_cast<std::size_t>(u)])
                    continue;
                inDown[static_cast<std::size_t>(u)] = 1;
                total[static_cast<std::size_t>(u)] =
                    total[static_cast<std::size_t>(v)] + 1;
                queue.push_back(u);
            }
        }

        // Phase 2 — everyone else climbs: processing in ascending
        // key order, each remaining router takes the up channel that
        // minimises total distance (lowest port breaks ties).
        for (const NodeId u : byKey) {
            if (u == d)
                continue;
            const std::size_t at = static_cast<std::size_t>(u) *
                                       static_cast<std::size_t>(nr) +
                                   static_cast<std::size_t>(d);
            row = &table_[at];
            if (inDown[static_cast<std::size_t>(u)]) {
                // Forced down hop toward d along a shortest down path.
                int bestPort = -1;
                for (int p = kPortNorth; p <= kPortWest; ++p) {
                    if (!liveLink(u, p))
                        continue;
                    const NodeId v = mesh_.neighbor(u, p);
                    if (key(v) <= key(u) ||
                        !inDown[static_cast<std::size_t>(v)])
                        continue;
                    if (total[static_cast<std::size_t>(v)] ==
                        total[static_cast<std::size_t>(u)] - 1) {
                        bestPort = p;
                        break;
                    }
                }
                NOX_ASSERT(bestPort >= 0,
                           "down-set router ", u,
                           " has no down hop toward ", d);
                *row = static_cast<std::int8_t>(bestPort);
                continue;
            }
            int best = kUnreach;
            int bestPort = -1;
            for (int p = kPortNorth; p <= kPortWest; ++p) {
                if (!liveLink(u, p))
                    continue;
                const NodeId v = mesh_.neighbor(u, p);
                if (key(v) >= key(u)) // only up channels here
                    continue;
                if (total[static_cast<std::size_t>(v)] == kUnreach)
                    continue;
                const int cand =
                    1 + total[static_cast<std::size_t>(v)];
                if (cand < best) {
                    best = cand;
                    bestPort = p;
                }
            }
            total[static_cast<std::size_t>(u)] = best;
            *row = static_cast<std::int8_t>(
                bestPort >= 0 ? bestPort : -1);
        }
        for (NodeId u = 0; u < nr; ++u) {
            if (map_.routerDead(u)) {
                table_[static_cast<std::size_t>(u) *
                           static_cast<std::size_t>(nr) +
                       static_cast<std::size_t>(d)] = -1;
            }
        }
    }
}

bool
RoutingTable::dependencyGraphAcyclic() const
{
    // A channel is a live directed mesh link (router, out port).
    // Channel c1 depends on c2 when some destination's route enters
    // a router through c1 and immediately leaves through c2.
    const int nr = numRouters_;
    const std::size_t nc = static_cast<std::size_t>(nr) * kMeshPorts;
    std::vector<std::uint8_t> dep(nc * nc, 0);
    for (NodeId d = 0; d < nr; ++d) {
        if (map_.routerDead(d))
            continue;
        for (NodeId u = 0; u < nr; ++u) {
            if (map_.routerDead(u) || u == d)
                continue;
            const int pu =
                table_[static_cast<std::size_t>(u) *
                           static_cast<std::size_t>(nr) +
                       static_cast<std::size_t>(d)];
            if (pu < 0)
                continue;
            const NodeId v = mesh_.neighbor(u, pu);
            if (v == kInvalidNode || v == d)
                continue;
            const int pv =
                table_[static_cast<std::size_t>(v) *
                           static_cast<std::size_t>(nr) +
                       static_cast<std::size_t>(d)];
            if (pv < 0)
                continue;
            dep[linkIndex(u, pu) * nc + linkIndex(v, pv)] = 1;
        }
    }

    // Iterative three-colour DFS over the channel graph.
    enum : std::uint8_t { White = 0, Grey = 1, Black = 2 };
    std::vector<std::uint8_t> colour(nc, White);
    std::vector<std::pair<std::size_t, std::size_t>> stack;
    for (std::size_t start = 0; start < nc; ++start) {
        if (colour[start] != White)
            continue;
        colour[start] = Grey;
        stack.emplace_back(start, 0);
        while (!stack.empty()) {
            auto &[c, next] = stack.back();
            bool descended = false;
            while (next < nc) {
                const std::size_t succ = next++;
                if (!dep[c * nc + succ])
                    continue;
                if (colour[succ] == Grey)
                    return false; // back edge = cycle
                if (colour[succ] == White) {
                    colour[succ] = Grey;
                    stack.emplace_back(succ, 0);
                    descended = true;
                    break;
                }
            }
            if (!descended && stack.back().second >= nc) {
                colour[stack.back().first] = Black;
                stack.pop_back();
            }
        }
    }
    return true;
}

} // namespace nox
