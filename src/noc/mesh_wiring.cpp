#include "noc/mesh_wiring.hpp"

#include <utility>

#include "common/log.hpp"

namespace nox {

MeshWiring::MeshWiring(const Mesh &mesh,
                       std::vector<std::unique_ptr<Router>> &routers,
                       std::vector<std::unique_ptr<Nic>> &nics)
    : mesh_(mesh), routers_(routers), nics_(nics), map_(mesh), table_(map_)
{
}

void
MeshWiring::wirePristine()
{
    const int nr = mesh_.numRouters();
    for (NodeId r = 0; r < nr; ++r) {
        for (int port = kPortNorth; port <= kPortWest; ++port) {
            // Each link once, from its lower-id end.
            const NodeId nb = mesh_.neighbor(r, port);
            if (nb != kInvalidNode && r < nb)
                connectLink(r, port);
        }
    }
    for (NodeId r = 0; r < nr; ++r)
        attachTerminals(r);
}

void
MeshWiring::connectLink(NodeId router, int port)
{
    const NodeId nb = mesh_.neighbor(router, port);
    NOX_ASSERT(nb != kInvalidNode, "wiring a link off the mesh edge");
    const int back = Mesh::oppositePort(port);
    const auto wire = [this](NodeId from, int out, NodeId to, int in) {
        // The credits a dead link's far input freed went nowhere: only
        // its free slots come back.
        Router &down = *routers_[to];
        const FlitFifo &buffer = down.inputFifo(in);
        Router::FlitTarget ft;
        ft.router = &down;
        ft.port = in;
        routers_[from]->connectOutput(
            out, ft, static_cast<int>(buffer.capacity() - buffer.size()));
        Router::CreditTarget ct;
        ct.router = &down;
        ct.port = in;
        routers_[from]->connectInputCredit(out, ct);
    };
    wire(router, port, nb, back);
    wire(nb, back, router, port);
    // Per-port state (VC credit books, lane locks) resets on both
    // sides, with the same free-slot rule per lane.
    routers_[router]->onOutputRevived(port);
    routers_[nb]->onOutputRevived(back);
}

void
MeshWiring::severLink(NodeId router, int port, std::vector<FlitDesc> &lost)
{
    const NodeId nb = mesh_.neighbor(router, port);
    const int back = Mesh::oppositePort(port);
    routers_[router]->killOutput(port, lost);
    routers_[nb]->killInput(back, lost);
    routers_[nb]->killOutput(back, lost);
    routers_[router]->killInput(port, lost);
}

void
MeshWiring::attachTerminals(NodeId router)
{
    for (int t = 0; t < mesh_.concentration(); ++t) {
        const int lp = kPortLocal + t;
        Nic &nic = *nics_[mesh_.terminalAt(router, lp)];
        nic.revive();
        nic.connectRouter(routers_[router].get(), lp);
        routers_[router]->onOutputRevived(lp);
    }
}

void
MeshWiring::detachTerminals(NodeId router, std::vector<FlitDesc> &lost)
{
    for (int t = 0; t < mesh_.concentration(); ++t) {
        const int lp = kPortLocal + t;
        routers_[router]->killOutput(lp, lost);
        routers_[router]->killInput(lp, lost);
        nics_[mesh_.terminalAt(router, lp)]->killAttached(lost);
    }
}

void
MeshWiring::killLink(NodeId router, int port, std::vector<FlitDesc> &lost)
{
    if (map_.killLink(router, port))
        severLink(router, port, lost);
}

void
MeshWiring::killRouter(NodeId router, std::vector<FlitDesc> &lost)
{
    if (!map_.killRouter(router))
        return; // already dead
    // A link already down (killed in its own right, or toward a dead
    // neighbour) was severed then; severing it again changes nothing.
    for (int port = kPortNorth; port <= kPortWest; ++port) {
        if (mesh_.neighbor(router, port) != kInvalidNode)
            severLink(router, port, lost);
    }
    detachTerminals(router, lost);
}

bool
MeshWiring::healLink(NodeId router, int port)
{
    if (!map_.healLink(router, port))
        return false;
    // A dead endpoint keeps the link down until its own heal.
    if (!map_.linkDead(router, port))
        connectLink(router, port);
    return true;
}

bool
MeshWiring::healRouter(NodeId router)
{
    if (!map_.healRouter(router))
        return false;
    for (int port = kPortNorth; port <= kPortWest; ++port) {
        if (mesh_.neighbor(router, port) != kInvalidNode &&
            !map_.linkDead(router, port))
            connectLink(router, port);
    }
    attachTerminals(router);
    return true;
}

HardFaultLosses
MeshWiring::apply(const std::vector<FaultInjector::HardFault> &due,
                  FaultInjector &faults, bool at_construction)
{
    std::vector<FlitDesc> lost;
    for (const auto &h : due) {
        switch (h.kind) {
          case FaultKind::RouterDead:
            killRouter(h.router, lost);
            break;
          case FaultKind::LinkDead:
            killLink(h.router, h.port, lost);
            break;
          case FaultKind::RouterHeal:
            if (healRouter(h.router))
                faults.recordHeal(h.kind, h.router, -1);
            break;
          case FaultKind::LinkHeal:
            if (healLink(h.router, h.port))
                faults.recordHeal(h.kind, h.router, h.port);
            break;
          default:
            panic("soft fault kind in the hard-fault schedule");
        }
    }
    // A heal changes the topology exactly like a kill: the rebuilt
    // table (back toward DOR as the map empties) can orphan in-flight
    // flits on now-forbidden turns, so heal-only batches purge too.
    table_.rebuild();
    if (at_construction)
        return {};
    for (auto &r : routers_)
        r->onTableRebuild();
    return purge(std::move(lost));
}

HardFaultLosses
MeshWiring::purge(std::vector<FlitDesc> lost)
{
    // A packet is condemned once any of its flits is lost or its
    // destination became unreachable from wherever the flit sits.
    // Removing flits can condemn further packets (NoX full-port drops
    // take clean bystanders with them), so sweep until no new
    // casualty appears. Losses are deduplicated by flit uid: the same
    // flit can surface twice (inside a downstream decode chain and in
    // an upstream buffer copy).
    HardFaultLosses out;
    const auto condemned = [&](NodeId at, int in_port, const FlitDesc &d) {
        if (out.packets.count(d.packet) != 0)
            return true;
        const int next = table_.lookup(at, d.dest);
        if (next < 0)
            return true; // destination now unreachable from here
        // Stale-epoch guard: a flit already past this input when the
        // table changed may sit on a channel the new table never
        // routes through. If its next hop is the turn the new table
        // forbids, its wait edge is outside the verified CDG and can
        // deadlock the mesh, so it is written off. Every surviving
        // flit's future waits are table edges.
        if (in_port >= kPortNorth && in_port <= kPortWest &&
            next >= kPortNorth && next <= kPortWest) {
            const NodeId from = mesh_.neighbor(at, in_port);
            const NodeId to = mesh_.neighbor(at, next);
            if (from != kInvalidNode && to != kInvalidNode &&
                table_.forbiddenTurn(from, at, to))
                return true;
        }
        return false;
    };
    // The first sweep runs even when the dying hardware held no
    // flits: live routers elsewhere can still hold traffic for
    // destinations the fault just disconnected.
    std::vector<FlitDesc> pending = std::move(lost);
    do {
        for (const FlitDesc &d : pending) {
            if (out.flitUids.insert(d.uid).second)
                out.packets.emplace(d.packet, d.dest);
        }
        pending.clear();
        std::vector<FlitDesc> removed;
        for (auto &r : routers_)
            r->purgeFlits(condemned, removed);
        for (auto &nic : nics_)
            nic->purgeCondemned(condemned, removed);
        for (const FlitDesc &d : removed) {
            if (!out.flitUids.count(d.uid))
                pending.push_back(d);
        }
    } while (!pending.empty());
    return out;
}

template <typename Ar, typename Self>
void
MeshWiring::layout(Ar &ar, Self &self)
{
    // Dead routers, then every explicitly failed link (canonical
    // direction), including links whose endpoint router is dead too:
    // a later heal of that router must not revive the link's own
    // fault.
    std::vector<NodeId> deadRouters;
    std::vector<std::pair<NodeId, int>> deadLinks;
    if constexpr (!Ar::kReading) {
        deadRouters = self.map_.deadRouters();
        deadLinks = self.map_.explicitDeadLinks();
    }
    const NodeId lastRouter = self.mesh_.numRouters() - 1;
    snap::ioSeq(ar, deadRouters, 4, [lastRouter](auto &a, auto &router) {
        snap::ioBounded(a, router, 0, lastRouter,
                        "dead-router id out of range");
    });
    snap::ioSeq(ar, deadLinks, 8, [lastRouter](auto &a, auto &link) {
        const char *outside = "dead-link endpoint out of range";
        snap::ioBounded(a, link.first, 0, lastRouter, outside);
        snap::ioBounded(a, link.second, kPortNorth, kPortWest, outside);
    });
    if constexpr (Ar::kReading) {
        // The snapshot's dead set need not contain the current one
        // (heals), so heal everything first, uncounted (the restored
        // stats hold the real heals), then kill the lists: links
        // before routers, because a link kill needs both endpoints.
        const bool replay = self.map_.anyFault() || !deadRouters.empty() ||
                            !deadLinks.empty();
        std::vector<FlitDesc> discard; // nothing is in flight
        for (const auto &[router, port] : self.map_.explicitDeadLinks())
            self.healLink(router, port);
        for (NodeId router : self.map_.deadRouters())
            self.healRouter(router);
        for (const auto &[router, port] : deadLinks)
            self.killLink(router, port, discard);
        for (NodeId router : deadRouters)
            self.killRouter(router, discard);
        NOX_ASSERT(discard.empty(),
                   "fault replay on a restore target with traffic");
        if (replay)
            self.table_.rebuild();
    }
    std::uint64_t rebuilds = self.table_.rebuilds();
    snap::io(ar, rebuilds);
    if constexpr (Ar::kReading)
        self.table_.setRebuildCount(rebuilds);
}

void
MeshWiring::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
MeshWiring::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
