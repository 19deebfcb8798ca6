/**
 * @file
 * Network interface controller: per-tile packet source queue feeding
 * the router's local input port, and the ejection sink that drains the
 * router's local output port.
 *
 * The sink is a NoX input port (§2.4, XorDecoder) so that encoded
 * flits arriving at the ejection port of a NoX network are recovered
 * exactly as in Figure 3. Non-NoX networks only ever deliver uncoded
 * flits, for which the decoder is a pass-through.
 */

#ifndef NOX_NOC_NIC_HPP
#define NOX_NOC_NIC_HPP

#include <deque>
#include <vector>
#include <unordered_map>

#include "noc/energy_events.hpp"
#include "noc/fifo.hpp"
#include "noc/flit.hpp"
#include "noc/router.hpp"
#include "noc/xor_decoder.hpp"

namespace nox {

class FaultInjector;
class E2eTransport;

/** Receives flit/packet delivery notifications from the sinks. */
class SinkListener
{
  public:
    virtual ~SinkListener() = default;

    /** A (decoded) flit reached its destination NIC. */
    virtual void onFlitDelivered(NodeId node, const FlitDesc &flit,
                                 Cycle now) = 0;

    /**
     * All flits of a packet have reached the destination NIC.
     * @param head_inject the cycle the packet's head flit left its
     *        source queue (for network-latency accounting).
     */
    virtual void onPacketCompleted(NodeId node, const FlitDesc &last_flit,
                                   Cycle head_inject, Cycle now) = 0;
};

/** Per-node network interface (source queue + ejection sink). */
class Nic
{
  public:
    Nic(NodeId node, int sink_buffer_depth);

    Nic(Nic &&) = default;

    /** Attach to the node's router at local port @p local_port
     *  (kPortLocal + terminal index on a concentrated mesh). */
    void connectRouter(Router *router, int local_port = kPortLocal);

    /** Observer for delivered flits/packets (owned elsewhere). */
    void setListener(SinkListener *listener) { listener_ = listener; }

    /** Attach the network's fault injector: the ejection sink then
     *  decodes leniently and reports corrupted deliveries instead of
     *  asserting (nullptr = fault-free, legacy behavior). */
    void attachFaults(FaultInjector *faults) { faults_ = faults; }

    /** Attach the network's trace recorder (nullptr = tracing off). */
    void attachTracer(TraceRecorder *tracer) { tracer_ = tracer; }

    /** Attach the network's latency-provenance observer (nullptr =
     *  off). */
    void attachProvenance(LatencyProvenance *prov) { prov_ = prov; }

    /** Attach the network's E2E transport (nullptr = off). The sink
     *  then drops duplicate flits — stragglers of already-completed
     *  or abandoned logical packets — at the door, before they can
     *  touch arrival or delivery state. */
    void attachTransport(E2eTransport *transport)
    {
        transport_ = transport;
    }

    // -- per-cycle evaluation (two-phase, like Router) --
    void evaluateInject(Cycle now);
    void evaluateSink(Cycle now);
    void commit();

    /**
     * Activity contract (see Router::quiescent): true iff ticking
     * this NIC would be a no-op — empty source queues (a stalled but
     * non-empty queue keeps the NIC active so it injects the moment a
     * credit returns), empty sink FIFO, no staged flit/credits, and
     * an empty ejection decode register. Partially-arrived packets
     * (`arrived_`) do not block quiescence: their remaining flits are
     * elsewhere in the network and re-arm the NIC on arrival.
     */
    bool quiescent() const;

    /** Bind the network's active-set bit (see Router::bindActivity). */
    void
    bindActivity(std::uint64_t *word, std::uint64_t bit)
    {
        activityWord_ = word;
        activityBit_ = bit;
    }

    // -- traffic-generator side --
    /** Queue all flits of a packet for injection (FIFO order). The
     *  caller keeps ownership — Network reuses one scratch vector for
     *  every packet it builds. */
    void enqueuePacket(const std::vector<FlitDesc> &flits);

    /** Flits waiting in the source queues (saturation metric). */
    std::size_t
    sourceQueueFlits() const
    {
        std::size_t n = 0;
        for (const auto &q : injectQueue_)
            n += q.size();
        return n;
    }

    // -- router side (staged until commit) --
    void stageSinkFlit(WireFlit &&flit);
    void stageInjectCredit(int count = 1, int vc = 0);

    // -- hard (fail-stop) fault handling --

    /**
     * The attached router died: every queued source flit and every
     * sink-side value (FIFO, decode register) is lost, credits are
     * zeroed, and the NIC goes permanently inert (inject/sink
     * evaluation become no-ops; it reports quiescent).
     */
    void killAttached(std::vector<FlitDesc> &lost);

    /** Remove condemned flits from the source queues and — since sink
     *  values are XOR chains like a NoX port — drop the whole sink
     *  contents when any constituent is condemned (credits for
     *  dropped sink values return to the live router). */
    void purgeCondemned(const Router::FlitCondemned &condemned,
                        std::vector<FlitDesc> &removed);

    /** Forget the partial-arrival record of a lost packet (its
     *  remaining flits were purged; it will never complete). */
    void forgetArrived(PacketId packet) { arrived_.erase(packet); }

    /** A heal re-attached this NIC's router: leave the dead state.
     *  The caller re-wires via connectRouter(), which restores the
     *  credit books; queues were emptied by killAttached(). */
    void revive() { dead_ = false; }

    bool dead() const { return dead_; }

    NodeId node() const { return node_; }
    const EnergyEvents &energy() const { return energy_; }

    /** Packets with some but not all flits delivered here, sorted by
     *  id — the receiver-side view of in-flight traffic, used by the
     *  drain-timeout diagnosis. */
    std::vector<std::pair<PacketId, std::uint32_t>>
    partialPackets() const;

    const FlitFifo &sinkFifo() const { return sinkFifo_; }
    int injectCredits(int vc = 0) const
    {
        return injectCredits_[static_cast<std::size_t>(vc)];
    }

    /** Capture / restore dynamic state (checkpointing); taken between
     *  steps, when nothing is staged (asserted). Digest scope omits
     *  the kernel-dependent energy counters (see Router::serialize). */
    void serialize(snap::Writer &w,
                   snap::Scope scope = snap::Scope::Snapshot) const;
    void restore(snap::Reader &r);

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self, snap::Scope scope);

    void deliver(const FlitDesc &flit, Cycle now);

    /** The sink's decode site, located at this NIC's node. */
    DecodeSite
    decodeSite()
    {
        return {energy_, faults_, tracer_, prov_, node_, localPort_, true};
    }

    /** Where the sink's decode rules send a freed slot's credit: the
     *  attached router's local output, on the value's VC. */
    auto
    creditReturn()
    {
        return [this](int vc) { router_->stageCreditVc(localPort_, vc); };
    }

    void wake()
    {
        if (activityWord_)
            *activityWord_ |= activityBit_;
    }

    /** Record a NIC-side trace event (no-op when tracing is off). */
    void
    trace(TraceEventKind kind, std::uint64_t id, std::uint32_t arg = 0)
    {
        if (tracer_)
            tracer_->record(kind, node_, localPort_, id, arg, true);
    }

    std::uint64_t *activityWord_ = nullptr;
    std::uint64_t activityBit_ = 0;
    NodeId node_;
    bool dead_ = false; ///< attached router was hard-killed
    Router *router_ = nullptr;
    int localPort_ = kPortLocal;
    SinkListener *listener_ = nullptr;
    FaultInjector *faults_ = nullptr;
    TraceRecorder *tracer_ = nullptr;
    LatencyProvenance *prov_ = nullptr;
    E2eTransport *transport_ = nullptr;

    // Injection side (per VC; one entry for the paper's VC-free
    // routers). Per-VC source queues avoid head-of-line blocking
    // between classes, mirroring the per-network queues of a
    // multiple-physical-channel design.
    std::vector<std::deque<FlitDesc>> injectQueue_;
    std::vector<int> injectCredits_;
    std::vector<int> stagedInjectCredits_;
    int injectRr_ = 0; ///< round-robin pointer across VC queues

    // Ejection side.
    FlitFifo sinkFifo_; ///< a routed flit is staged straight in
    XorDecoder decoder_;

    struct Arrival
    {
        std::uint32_t count = 0;
        Cycle headInject = 0;
    };
    std::unordered_map<PacketId, Arrival> arrived_;

    EnergyEvents energy_;
};

} // namespace nox

#endif // NOX_NOC_NIC_HPP
