/**
 * @file
 * RoutingTable: DOR equivalence on fault-free meshes and fuzzed
 * correctness under random hard-fault maps.
 *
 * The fault-free table must be *bit-identical* to the functional DOR
 * baseline — every (current router, destination node) pair, including
 * concentrated meshes — because the paper reproduction runs through
 * the table even when no fault machinery is configured. Under random
 * fault maps the rebuilt up-down table must stay provably
 * deadlock-free (acyclic channel-dependency graph), route every
 * still-connected pair to its destination in bounded hops, and report
 * exactly the BFS-disconnected pairs unreachable.
 */

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "noc/routing.hpp"
#include "noc/routing_table.hpp"
#include "noc/topology.hpp"

namespace nox {
namespace {

void
expectMatchesDorRoute(const Mesh &mesh)
{
    const FaultMap map(mesh);
    const RoutingTable table(map);
    for (NodeId r = 0; r < mesh.numRouters(); ++r) {
        for (NodeId d = 0; d < mesh.numNodes(); ++d) {
            ASSERT_EQ(table.lookup(r, d), dorRoute(mesh, r, d))
                << "router " << r << " dest " << d;
        }
    }
    EXPECT_TRUE(table.dependencyGraphAcyclic());
}

TEST(RoutingTableFaultFree, DorXyTableMatchesDorRoute)
{
    expectMatchesDorRoute(Mesh(8, 8));
}

TEST(RoutingTableFaultFree, RectangularAndConcentratedMeshes)
{
    // Non-square shape and a concentrated mesh (several terminals per
    // router) exercise routerOf/localPortOf in the table fill.
    for (const Mesh &mesh :
         {Mesh(6, 3), Mesh(4, 4, 2), Mesh(2, 5, 4)})
        expectMatchesDorRoute(mesh);
}

TEST(RoutingTableFaultFree, EmptyFaultMapRebuildStaysOnDor)
{
    // A rebuild with a fault-free map must stay on the DOR fast path
    // (not switch to up-down, whose routes differ).
    const Mesh mesh(8, 8);
    const FaultMap map(mesh);
    RoutingTable table(map);
    table.rebuild();
    EXPECT_EQ(table.rebuilds(), 2u);
    for (NodeId r = 0; r < mesh.numRouters(); ++r) {
        for (NodeId d = 0; d < mesh.numNodes(); ++d)
            ASSERT_EQ(table.lookup(r, d), dorRoute(mesh, r, d));
    }
}

/** Router-level reachability over live links, ground truth by BFS. */
std::vector<bool>
bfsReachable(const Mesh &mesh, const FaultMap &map, NodeId from)
{
    std::vector<bool> seen(
        static_cast<std::size_t>(mesh.numRouters()), false);
    if (map.routerDead(from))
        return seen;
    std::queue<NodeId> q;
    seen[static_cast<std::size_t>(from)] = true;
    q.push(from);
    while (!q.empty()) {
        const NodeId u = q.front();
        q.pop();
        for (int p = kPortNorth; p <= kPortWest; ++p) {
            if (map.linkDead(u, p))
                continue;
            const NodeId v = mesh.neighbor(u, p);
            if (v == kInvalidNode || map.routerDead(v) ||
                seen[static_cast<std::size_t>(v)])
                continue;
            seen[static_cast<std::size_t>(v)] = true;
            q.push(v);
        }
    }
    return seen;
}

/** Follow the table from @p src to @p dest_node; return hops taken,
 *  or -1 on a dead end / hop-bound overrun. */
int
walkTable(const Mesh &mesh, const RoutingTable &table, NodeId src,
          NodeId dest_node)
{
    const NodeId dr = mesh.routerOf(dest_node);
    NodeId at = src;
    const int bound = 4 * mesh.numRouters();
    for (int hops = 0; hops <= bound; ++hops) {
        const int out = table.lookup(at, dest_node);
        if (out < 0)
            return -1;
        if (at == dr) {
            // Terminal hop: must name the destination's local port.
            return mesh.terminalAt(at, out) == dest_node ? hops : -1;
        }
        if (out > kPortWest)
            return -1; // local port while not at the destination
        at = mesh.neighbor(at, out);
        if (at == kInvalidNode)
            return -1; // routed off the mesh edge
    }
    return -1;
}

TEST(RoutingTableFuzz, RandomFaultMapsStayDeadlockFreeAndExact)
{
    const Mesh mesh(8, 8);
    Rng rng(0xFADE0);
    int disconnected_pairs_seen = 0;

    for (int trial = 0; trial < 100; ++trial) {
        FaultMap map(mesh);
        RoutingTable table(map);
        const int router_kills =
            static_cast<int>(rng.nextBounded(3)); // 0..2
        const int link_kills =
            1 + static_cast<int>(rng.nextBounded(6)); // 1..6
        for (int k = 0; k < router_kills; ++k) {
            map.killRouter(static_cast<NodeId>(rng.nextBounded(
                static_cast<std::uint64_t>(mesh.numRouters()))));
        }
        for (int k = 0; k < link_kills; ++k) {
            map.killLink(
                static_cast<NodeId>(rng.nextBounded(
                    static_cast<std::uint64_t>(mesh.numRouters()))),
                static_cast<int>(rng.nextBounded(4)));
        }

        table.rebuild();

        // Deadlock freedom: the channel-dependency graph of the
        // rebuilt table must be acyclic, whatever the fault map.
        ASSERT_TRUE(table.dependencyGraphAcyclic())
            << "trial " << trial << ": cyclic CDG";

        for (NodeId r = 0; r < mesh.numRouters(); ++r) {
            const std::vector<bool> reach = bfsReachable(mesh, map, r);
            for (NodeId d = 0; d < mesh.numNodes(); ++d) {
                const NodeId dr = mesh.routerOf(d);
                const bool connected =
                    !map.routerDead(r) &&
                    reach[static_cast<std::size_t>(dr)];
                if (connected) {
                    ASSERT_GE(walkTable(mesh, table, r, d), 0)
                        << "trial " << trial << ": " << r << " -> "
                        << d << " is connected but the table walk "
                        << "fails";
                } else {
                    ++disconnected_pairs_seen;
                    ASSERT_EQ(table.lookup(r, d), -1)
                        << "trial " << trial << ": " << r << " -> "
                        << d << " is disconnected but the table "
                        << "routes it";
                }
            }
        }
    }
    // The fuzz corpus genuinely exercised the unreachable branch.
    EXPECT_GT(disconnected_pairs_seen, 0);
}

TEST(RoutingTableFuzz, KillApiRejectsDoubleAndEdgeKills)
{
    const Mesh mesh(4, 4);
    FaultMap map(mesh);
    EXPECT_FALSE(map.killLink(0, kPortNorth)); // mesh edge: no link
    EXPECT_FALSE(map.killLink(0, kPortWest));
    EXPECT_TRUE(map.killLink(0, kPortEast));
    EXPECT_FALSE(map.killLink(0, kPortEast)); // already dead
    EXPECT_FALSE(map.killLink(1, kPortWest)); // reverse of the same
    EXPECT_TRUE(map.killRouter(5));
    EXPECT_FALSE(map.killRouter(5));
    EXPECT_FALSE(map.killLink(5, kPortSouth)); // dead endpoint
    EXPECT_TRUE(map.routerDead(5));
    EXPECT_TRUE(map.linkDead(5, kPortEast));
    EXPECT_TRUE(map.linkDead(6, kPortWest));
}

TEST(RoutingTableFuzz, SplitMeshRoutesWithinEachComponent)
{
    // Cut a 4x4 mesh into left and right halves: every cross pair is
    // unreachable, every same-side pair still routes deadlock-free.
    const Mesh mesh(4, 4);
    FaultMap map(mesh);
    for (int y = 0; y < 4; ++y)
        ASSERT_TRUE(map.killLink(mesh.nodeAt({1, y}), kPortEast));

    const RoutingTable table(map);
    ASSERT_TRUE(table.dependencyGraphAcyclic());

    for (NodeId r = 0; r < mesh.numRouters(); ++r) {
        for (NodeId d = 0; d < mesh.numNodes(); ++d) {
            const bool same_side =
                (mesh.coordOf(r).x <= 1) ==
                (mesh.coordOf(mesh.routerOf(d)).x <= 1);
            if (same_side)
                EXPECT_GE(walkTable(mesh, table, r, d), 0);
            else
                EXPECT_EQ(table.lookup(r, d), -1);
        }
    }
}

} // namespace
} // namespace nox
