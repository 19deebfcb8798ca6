/**
 * @file
 * Table-based fault-tolerant routing.
 *
 * The paper evaluates every router on a pristine mesh with
 * dimension-ordered routing; this layer generalises route lookup to a
 * precomputed per-router table so the network can keep serving
 * traffic around *permanent* (fail-stop) link and router faults:
 *
 *  - On a fault-free mesh the table is filled directly from
 *    dorRoute(), so lookup() is bit-identical to the paper's X-then-Y
 *    DOR baseline (verified pairwise by tests).
 *  - As soon as any hard fault exists, the affected topology is
 *    re-routed with up-down routing [Schroeder et al., Autonet]:
 *    a BFS spanning tree per connected component orients every live
 *    channel "up" (toward the root) or "down"; a legal path uses
 *    zero or more up channels followed by zero or more down channels.
 *    Forbidding the down->up turn makes the channel-dependency graph
 *    acyclic (every up channel strictly decreases the (level, id)
 *    key, every down channel strictly increases it), hence the
 *    routing is deadlock-free; rebuild() re-verifies this with an
 *    explicit cycle check on the CDG.
 *  - Reachability is exact: lookup() returns -1 for (and only for)
 *    pairs that BFS over live links cannot connect.
 */

#ifndef NOX_NOC_ROUTING_TABLE_HPP
#define NOX_NOC_ROUTING_TABLE_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "noc/routing.hpp"
#include "noc/topology.hpp"
#include "noc/types.hpp"

namespace nox {

/**
 * The set of fail-stop faults currently applied to a mesh. Links die
 * symmetrically (both directions at once — a fail-stop link takes its
 * turnaround credit wire down with it); killing a router implicitly
 * deadens all four of its mesh links. Faults are no longer permanent:
 * heal events undo kills entry-for-entry, and when the map empties
 * (`anyFault()` back to false) routing returns to the bit-identical
 * DOR baseline. Explicit link kills are tracked separately from the
 * links a dead router merely *implies* are down, so healing a router
 * does not silently resurrect a link that was killed in its own
 * right.
 */
class FaultMap
{
  public:
    explicit FaultMap(const Mesh &mesh);

    const Mesh &mesh() const { return mesh_; }

    /**
     * Kill the mesh link leaving @p router through @p port (and its
     * reverse direction). Returns false if there is no live link
     * there (edge of the mesh, already dead, or dead endpoint).
     */
    bool killLink(NodeId router, int port);

    /** Kill @p router and all of its mesh links. Returns false if it
     *  is already dead. */
    bool killRouter(NodeId router);

    /** Heal an explicitly killed link (both directions). Returns
     *  false when no explicit kill exists there — including links
     *  that are only down because an endpoint router is dead. */
    bool healLink(NodeId router, int port);

    /** Heal a dead router. Its implied link deaths lift with it;
     *  explicitly killed adjacent links stay dead until their own
     *  heal. Returns false if @p router is alive. */
    bool healRouter(NodeId router);

    bool
    routerDead(NodeId router) const
    {
        return routerDead_[static_cast<std::size_t>(router)] != 0;
    }

    /** True when the link out of @p router through mesh direction
     *  @p port is dead — explicitly killed, or implied by a dead
     *  endpoint router. */
    bool linkDead(NodeId router, int port) const;

    /** Any hard fault applied at all? While false, routing stays on
     *  the bit-identical DOR fast path. */
    bool anyFault() const { return faults_ > 0; }

    /** Currently dead routers, ascending. */
    std::vector<NodeId> deadRouters() const;

    /** Explicitly killed links as canonical (router, port) pairs
     *  (the lower-id endpoint), ascending — the replayable kill
     *  list checkpoints serialize. */
    std::vector<std::pair<NodeId, int>> explicitDeadLinks() const;

    int deadRouterCount() const;
    int explicitDeadLinkCount() const;

  private:
    const Mesh &mesh_;
    std::vector<std::uint8_t> routerDead_;
    /** Explicit link kills only: [router * 4 + port]. Links implied
     *  dead by a dead endpoint router are derived in linkDead(). */
    std::vector<std::uint8_t> linkDead_;
    int faults_ = 0;
};

/**
 * Per-router routing table: output port for every (current router,
 * destination router) pair, precomputed from the FaultMap it is bound
 * to. The table reads that map's dead routers directly, so rebuild()
 * must follow every change to the map before the next lookup.
 *
 * One instance is shared by every router of a Network; a router's
 * "private" table is its row. Lookup is a flat array read — cheaper
 * than the coordinate arithmetic it replaces.
 */
class RoutingTable
{
  public:
    /** Bind to @p map (which must outlive the table) and build. */
    explicit RoutingTable(const FaultMap &map);

    /**
     * Recompute every entry from the bound fault map. A fault-free
     * map reproduces dorRoute() exactly; any hard fault switches the
     * affected topology to up-down routing. Asserts the resulting
     * channel-dependency graph is acyclic.
     */
    void rebuild();

    /**
     * Output port at @p router for a flit addressed to terminal
     * @p dest_node: a mesh direction, the destination's local port
     * when it lives on @p router, or -1 when @p dest_node is
     * unreachable from @p router.
     */
    int
    lookup(NodeId router, NodeId dest_node) const
    {
        const NodeId dr = mesh_.routerOf(dest_node);
        if (dr == router)
            return map_.routerDead(router) ? -1 : mesh_.localPortOf(dest_node);
        return table_[static_cast<std::size_t>(router) *
                          static_cast<std::size_t>(numRouters_) +
                      static_cast<std::size_t>(dr)];
    }

    /** Can traffic injected at @p src_node reach @p dest_node? */
    bool
    reachable(NodeId src_node, NodeId dest_node) const
    {
        const NodeId sr = mesh_.routerOf(src_node);
        return !map_.routerDead(sr) && lookup(sr, dest_node) >= 0;
    }

    /** Number of builds so far (the constructor's counts as the
     *  first). */
    std::uint64_t rebuilds() const { return rebuilds_; }

    /** Overwrite the rebuild counter (checkpoint restore only: the
     *  restore path replays fault-map kills with one rebuild, then
     *  reinstates the original run's count). */
    void setRebuildCount(std::uint64_t n) { rebuilds_ = n; }

    /**
     * True when a flit that arrived over channel @p from -> @p at and
     * would next traverse @p at -> @p to makes the down-then-up turn
     * the current up-down table forbids. The table itself never
     * routes such a turn; it can only appear on *stale* traffic that
     * was already past @p from when a rebuild changed the table, so a
     * mid-run rebuild purges exactly these flits — every later wait
     * they could cause is then a table edge, covered by the CDG
     * acyclicity argument. A fault-free (DOR) table applies its own
     * turn rule instead (X-then-Y never turns a vertical channel into
     * a horizontal one), so healing back to an empty fault map purges
     * the up-down stragglers the restored DOR table could never have
     * produced. Channels touching dead routers are exempt (their
     * flits are condemned outright).
     */
    bool
    forbiddenTurn(NodeId from, NodeId at, NodeId to) const
    {
        if (map_.routerDead(from) || map_.routerDead(at) ||
            map_.routerDead(to))
            return false;
        if (!upDown_) {
            const int x = mesh_.coordOf(at).x;
            return mesh_.coordOf(from).x == x && mesh_.coordOf(to).x != x;
        }
        return chanKey(at) > chanKey(from) && // arrived going down
               chanKey(to) < chanKey(at);     // would next go up
    }

    /**
     * Explicitly verify the current table's channel-dependency graph
     * is acyclic (a channel is a live directed mesh link; channel A
     * depends on channel B when some destination routes a flit from
     * A directly into B). rebuild() asserts this; the fuzz tests
     * call it directly.
     */
    bool dependencyGraphAcyclic() const;

  private:
    void buildFaultFree();
    void buildUpDown();

    /** Up-down ordering key: (BFS level, id) lexicographic. An
     *  u -> v channel is "up" iff chanKey(v) < chanKey(u). */
    std::uint64_t
    chanKey(NodeId u) const
    {
        return (static_cast<std::uint64_t>(
                    level_[static_cast<std::size_t>(u)])
                << 32) |
               static_cast<std::uint32_t>(u);
    }

    const Mesh &mesh_;
    const FaultMap &map_;
    int numRouters_;
    /** Output port per (router, destRouter); -1 = unreachable. */
    std::vector<std::int8_t> table_;
    std::vector<int> level_;   ///< BFS levels of the up-down forest
    bool upDown_ = false;      ///< last build used up-down routing
    std::uint64_t rebuilds_ = 0;
};

} // namespace nox

#endif // NOX_NOC_ROUTING_TABLE_HPP
