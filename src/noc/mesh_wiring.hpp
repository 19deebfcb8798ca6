/**
 * @file
 * The live topology of a network's mesh: which router outputs feed
 * which inputs, which links and routers are dead, and the routing
 * table that describes the result.
 *
 * Every change to the wiring goes through four primitives: one wires
 * a router-to-router link both ways, one severs it, one attaches a
 * router's terminal NICs and one detaches them. The pristine mesh is
 * built from them, every hard-fault kill and heal is built from them,
 * and a checkpoint restore replays its dead set through them, so a
 * new topology or a new fault event edits one place.
 */

#ifndef NOX_NOC_MESH_WIRING_HPP
#define NOX_NOC_MESH_WIRING_HPP

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "noc/fault_injector.hpp"
#include "noc/nic.hpp"
#include "noc/router.hpp"
#include "noc/routing_table.hpp"
#include "noc/topology.hpp"
#include "snapshot/io.hpp"

namespace nox {

/** What one batch of hard faults wrote off: the network's input for
 *  its loss accounting and for scrubbing the casualties elsewhere. */
struct HardFaultLosses
{
    std::unordered_set<std::uint64_t> flitUids; ///< each lost flit once
    std::unordered_map<PacketId, NodeId> packets; ///< lost packet -> dest
};

/**
 * Owner of a network's wiring, fault map and routing table. The
 * routers and NICs stay the network's; this unit holds references to
 * them and is the only code that connects or severs their ports.
 */
class MeshWiring
{
  public:
    MeshWiring(const Mesh &mesh,
               std::vector<std::unique_ptr<Router>> &routers,
               std::vector<std::unique_ptr<Nic>> &nics);

    /** Not copyable: the table refers to this object's map. */
    MeshWiring(const MeshWiring &) = delete;
    MeshWiring &operator=(const MeshWiring &) = delete;

    /** Wire the freshly built routers and NICs into the pristine
     *  mesh: every link, then every router's terminals. The table
     *  already describes it, so nothing is rebuilt. */
    void wirePristine();

    /**
     * Apply a batch of due hard faults in order, rebuild the table
     * and, unless @p at_construction, put the routers in degraded
     * mode and purge every flit the new topology can no longer
     * deliver. Applied heals are recorded on @p faults. At
     * construction nothing is in flight, and the routers must not
     * degrade for faults that predate all traffic.
     */
    HardFaultLosses apply(const std::vector<FaultInjector::HardFault> &due,
                          FaultInjector &faults, bool at_construction);

    const FaultMap &faultMap() const { return map_; }
    const RoutingTable &table() const { return table_; }

    /**
     * The dead set as replayable kill lists, then the table's rebuild
     * count. restore() expects a network with nothing in flight: it
     * heals every current fault back to the pristine mesh and
     * re-kills exactly the snapshot's lists (always legal on an
     * empty network), before any component state is loaded.
     */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    // -- the four wiring primitives --

    /** Wire the link out of @p router via @p port both ways. Each
     *  output is credited with the free slots of the buffer it feeds
     *  (a link kill leaves the far inputs' flits in place), and both
     *  ends reset their per-port state by the same rule. */
    void connectLink(NodeId router, int port);

    /** Sever the link out of @p router via @p port both ways (the
     *  flit wire and the turnaround credit wire share the channel),
     *  collecting in-flight casualties. */
    void severLink(NodeId router, int port, std::vector<FlitDesc> &lost);

    /** Attach @p router's terminal NICs, quiescent and empty, with
     *  fresh credit books on both sides. */
    void attachTerminals(NodeId router);

    /** Detach and kill @p router's terminal NICs, collecting their
     *  queued and buffered flits. */
    void detachTerminals(NodeId router, std::vector<FlitDesc> &lost);

    // -- kill and heal events, built from the primitives --

    void killLink(NodeId router, int port, std::vector<FlitDesc> &lost);
    void killRouter(NodeId router, std::vector<FlitDesc> &lost);

    /** Lift the explicit fault on a link, re-wiring it once neither
     *  endpoint router is dead. @return false when no explicit fault
     *  was recorded there. */
    bool healLink(NodeId router, int port);

    /** Revive a dead router: re-wire every link that is neither dead
     *  in its own right nor toward a dead neighbour, and re-attach its
     *  terminals. @return false when the router was alive. */
    bool healRouter(NodeId router);

    /** The purge fixpoint after a mid-run rebuild, seeded with the
     *  flits the dying hardware held. */
    HardFaultLosses purge(std::vector<FlitDesc> lost);

    const Mesh &mesh_;
    std::vector<std::unique_ptr<Router>> &routers_;
    std::vector<std::unique_ptr<Nic>> &nics_;
    FaultMap map_;       ///< accumulated hard faults
    RoutingTable table_; ///< shared by all routers; reads map_
};

} // namespace nox

#endif // NOX_NOC_MESH_WIRING_HPP
