/**
 * @file
 * Abstract single-cycle wormhole router.
 *
 * The four evaluated microarchitectures (non-speculative, Spec-Fast,
 * Spec-Accurate, NoX) derive from Router and implement evaluate().
 * The base class owns what they share: input FIFOs, credit counters
 * for each downstream buffer, staged (next-cycle) arrivals, link
 * wiring, route computation and energy-event counting.
 *
 * Two-phase update discipline: during evaluate() a router reads only
 * its own committed state and *stages* flits/credits into neighbours;
 * commit() publishes staged arrivals. A staged flit already sits in
 * its FIFO, behind the tail (FlitFifo::stage) and invisible until
 * commit, so the network may evaluate routers in any order with
 * identical results.
 */

#ifndef NOX_NOC_ROUTER_HPP
#define NOX_NOC_ROUTER_HPP

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "noc/arbiter.hpp"
#include "noc/energy_events.hpp"
#include "noc/fifo.hpp"
#include "noc/flit.hpp"
#include "noc/routing_table.hpp"
#include "noc/topology.hpp"
#include "noc/types.hpp"
#include "obs/provenance.hpp"
#include "obs/trace_recorder.hpp"
#include "snapshot/io.hpp"

namespace nox {

class FaultInjector;
class Nic;

/** Arbiter selection, exposed for the fairness ablation bench. */
enum class ArbiterKind : std::uint8_t {
    RoundRobin = 0,
    FixedPriority = 1,
    Matrix = 2,
};

/** Construction parameters shared by all router architectures. */
struct RouterParams
{
    int numPorts = kNumPorts; ///< router radix (4 + concentration)
    int bufferDepth = 4;      ///< flits per input FIFO (Table 1)
    int vcCount = 1;          ///< virtual channels (>1 builds the
                              ///< §2.8 exploration router)
    ArbiterKind arbiterKind = ArbiterKind::RoundRobin;
};

/** Base class for all evaluated router microarchitectures. */
class Router
{
  public:
    /** Where an output port's flits go. */
    struct FlitTarget
    {
        Router *router = nullptr;
        Nic *nic = nullptr;
        int port = 0;

        bool connected() const { return router || nic; }
    };

    /** Where an input port's freed-buffer credits go. */
    struct CreditTarget
    {
        Router *router = nullptr;
        Nic *nic = nullptr;
        int port = 0;

        bool connected() const { return router || nic; }
    };

    /** Predicate naming the flits a hard-fault purge must remove.
     *  Called with the router the flit is buffered at, the input
     *  port it arrived through (a local port for NIC-side storage),
     *  and the flit itself: position matters, because a mid-run
     *  table rebuild condemns stale flits whose *next* hop would be
     *  a turn the new up-down table forbids (see
     *  RoutingTable::forbiddenTurn). */
    using FlitCondemned =
        std::function<bool(NodeId at, int in_port, const FlitDesc &)>;

    Router(NodeId id, const Mesh &mesh, const RoutingTable &table,
           const RouterParams &params);
    virtual ~Router() = default;

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** The architecture implemented by this router. */
    virtual RouterArch arch() const = 0;

    /** Evaluate one clock cycle (phase 1: combinational + sends). */
    virtual void evaluate(Cycle now) = 0;

    /**
     * Link-layer maintenance, run by the Network before any router's
     * evaluate() each cycle (fault injection only): retransmits
     * nacked or timed-out retry-buffer entries and runs the credit
     * watchdog resync. Guaranteed a no-op on quiescent routers, so
     * the scheduled kernel may skip retired routers here too.
     */
    virtual void evaluateLink(Cycle now);

    /** Publish staged flit/credit arrivals (phase 2). */
    virtual void commit();

    /**
     * Activity contract for the scheduled kernel: true iff ticking
     * this router would be a no-op — no buffered flits, no staged
     * arrivals, no pending (staged) credits, and no architecture-
     * specific in-progress state (wormhole locks, reservations,
     * decode registers, non-reset mask automata). A quiescent router
     * may be retired from the active set; it is re-armed whenever a
     * flit or credit is staged to it.
     *
     * The base implementation covers the shared state; overrides must
     * AND in their own (and err on the side of returning false).
     */
    virtual bool quiescent() const;

    /**
     * Bind this router's bit in the network's active set: staging a
     * flit or credit to the router ORs @p bit into @p word, re-arming
     * it after a retirement. Only the gating (activity) kernel binds;
     * under always-tick, and for standalone routers in tests, wake()
     * is a no-op.
     */
    void
    bindActivity(std::uint64_t *word, std::uint64_t bit)
    {
        activityWord_ = word;
        activityBit_ = bit;
    }

    /** Virtual channels per input port (1 for the paper's wormhole
     *  designs; >1 only for the §2.8 exploration router). */
    virtual int vcCount() const { return 1; }

    // -- wiring, performed once by the Network --
    void connectOutput(int out_port, FlitTarget target, int credits);
    void connectInputCredit(int in_port, CreditTarget target);

    /** Attach the network's fault injector (nullptr = fault-free;
     *  every hot path then behaves exactly as before). */
    void attachFaults(FaultInjector *faults);

    /** Attach the network's trace recorder (nullptr = tracing off;
     *  every emission site is guarded by this pointer, so disabled
     *  tracing costs one predictable branch). */
    void attachTracer(TraceRecorder *tracer) { tracer_ = tracer; }

    /** Attach the network's latency-provenance observer (nullptr =
     *  off; every charge site is guarded by this pointer just like
     *  the tracer's emission sites). */
    void attachProvenance(LatencyProvenance *prov) { prov_ = prov; }

    // -- interface used by upstream neighbours / NICs --
    void stageFlit(int in_port, WireFlit &&flit);
    void stageCredit(int out_port, int count = 1);

    /**
     * Synchronous link-level handshake from the downstream receiver
     * of output @p out_port (fault-protected router-router links
     * only). Ack retires the retry-buffer entry; nack schedules its
     * retransmission after the nack turnaround delay.
     */
    void linkAck(int out_port);
    void linkNack(int out_port);

    /** VC-tagged credit return; non-VC routers fold it into the
     *  plain per-port credit. */
    virtual void
    stageCreditVc(int out_port, int vc)
    {
        (void)vc;
        stageCredit(out_port);
    }

    // -- hard (fail-stop) faults, driven by the Network --

    /**
     * Sever output @p out_port: the wire is gone. An unacknowledged
     * retry-buffer entry is appended to @p lost (its flits were never
     * buffered downstream), link-retry state is flushed and the port
     * unwired, so the existing outputConnected() checks in every
     * architecture's allocation double as the dead-port mask.
     */
    virtual void killOutput(int out_port, std::vector<FlitDesc> &lost);

    /** Sever input @p in_port (the matching credit wire is gone).
     *  Hard faults apply between steps, so nothing is staged; flits
     *  already buffered in the input FIFO arrived intact and are
     *  rerouted or purged by condemnation, not dropped here. */
    virtual void killInput(int in_port, std::vector<FlitDesc> &lost);

    /**
     * Remove every buffered flit matched by @p condemned (sibling
     * lost, or destination unreachable after a hard fault), appending
     * the removed descriptors to @p removed and returning the freed
     * buffer slots upstream. NoX overrides this to drop whole XOR
     * decode chains when any constituent is condemned.
     */
    virtual void purgeFlits(const FlitCondemned &condemned,
                            std::vector<FlitDesc> &removed);

    /**
     * The network rebuilt the routing tables after a mid-run hard
     * fault. Flits of one packet may now reach a router through a
     * different input than their head did, so every architecture
     * drops its wormhole locks / switch automata here and re-forms
     * them from the traffic; the base permanently enters degraded
     * mode, in which lock-consistency violations downgrade from
     * asserts to graceful re-arbitration.
     */
    virtual void onTableRebuild();

    /**
     * A previously killed output was re-wired by a heal (the network
     * already called connectOutput() with the free slots of the
     * downstream input buffer, which a link kill does not empty).
     * Architectures holding extra per-output state — the VC router's
     * per-lane credit counters — re-initialise it here by the same
     * rule.
     */
    virtual void
    onOutputRevived(int out_port)
    {
        (void)out_port;
    }

    // -- introspection (tests, stats) --
    NodeId id() const { return id_; }
    int numPorts() const { return params_.numPorts; }

    /** Request-mask bit cover for all of this router's ports. */
    RequestMask allPortsMask() const
    {
        return maskAll(params_.numPorts);
    }
    const FlitFifo &inputFifo(int port) const { return in_[port]; }

    /** Mutable FIFO access for test harnesses and trace tooling;
     *  production code must go through stageFlit()/commit(). */
    FlitFifo &inputFifo(int port) { return in_[port]; }
    int outputCredits(int port) const { return credits_[port]; }
    bool outputConnected(int port) const
    {
        return outTarget_[port].connected();
    }

    /** Bitmask of wired output ports (kept in sync by connectOutput
     *  and killOutput; the allocation loops iterate its set bits). */
    RequestMask connectedOutputs() const { return connectedOutMask_; }
    const EnergyEvents &energy() const { return energy_; }
    EnergyEvents &energy() { return energy_; }

    // -- observability introspection (MetricsSampler inputs) --

    /** Flits currently held across all input FIFOs. */
    std::uint32_t
    bufferedFlits() const
    {
        std::uint32_t n = 0;
        for (const FlitFifo &f : in_)
            n += static_cast<std::uint32_t>(f.size());
        return n;
    }

    /** Occupied link-retry buffers (0 without fault injection). */
    std::uint32_t
    retryPending() const
    {
        std::uint32_t n = 0;
        if (faults_) {
            for (const auto &r : retry_)
                n += r.has_value() ? 1 : 0;
        }
        return n;
    }

    /** Productive XOR-encoded transfers so far (NoX routers only;
     *  every other architecture reports 0). */
    virtual std::uint64_t xorCollisions() const { return 0; }

    /**
     * Capture / restore dynamic state (checkpointing). Called between
     * steps, when no arrivals are staged (commit() latched everything
     * — asserted); wiring, parameters and route tables are rebuilt by
     * construction and are not captured. Both run one layout, over a
     * Writer or a Reader; subclasses override both to run the base
     * class's layout first, then their own.
     *
     * @p scope selects the byte layout: Snapshot is lossless (restore
     * reads it back); Digest feeds the state-digest ledger and omits
     * the EnergyEvents counters, which the activity kernel clock-gates
     * for retired routers and which therefore legitimately differ
     * between bit-identical trajectories.
     */
    virtual void serialize(snap::Writer &w,
                           snap::Scope scope =
                               snap::Scope::Snapshot) const;
    virtual void restore(snap::Reader &r);

    /**
     * Deliberately corrupt one arbiter decision (test/debug only; see
     * NetworkParams::debugPerturbCycle). Used to seed a known
     * divergence for exercising the digest ledger and the trace_tool
     * bisector; a no-op for architectures without priority state.
     */
    virtual void debugPerturb() {}

  protected:
    /** True when the downstream buffer of @p out_port has a slot. */
    bool haveCredit(int out_port) const { return credits_[out_port] > 0; }

    /**
     * True while the link-level retry protocol owns @p out_port: a
     * retry entry is awaiting ack/timeout, or the retry buffer drove
     * the wire this very cycle. Normal sends must stall — the link
     * layer guarantees in-order delivery by never interleaving new
     * flits with an unacknowledged one. Always false without faults.
     */
    bool linkBusy(int out_port, Cycle now) const
    {
        return faults_ != nullptr &&
               (retry_[out_port].has_value() ||
                lastLinkSend_[out_port] == now);
    }

    /**
     * Transfer a flit across the output link: consumes one downstream
     * credit, stages the flit at the receiver and counts link energy.
     */
    void sendFlit(int out_port, WireFlit &&flit);

    /**
     * Dispatch + energy accounting without the base per-port credit
     * bookkeeping (used by routers that manage per-VC credits).
     */
    void dispatchFlit(int out_port, WireFlit &&flit);

    /**
     * Drive an invalid value on the output link (misspeculation or
     * NoX multi-flit abort): energy is spent, nothing is delivered and
     * no downstream credit is consumed.
     */
    void driveWasted(int out_port);

    /** Return a freed input-buffer slot to the upstream sender. */
    void returnCredit(int in_port);

    /** Move input @p in_port's head across the switch to @p out_port
     *  (buffer read, upstream credit, send), opening or closing the
     *  output's wormhole lock at a multi-flit head or tail. */
    void traverseWormhole(int in_port, int out_port, int &lock_owner,
                          PacketId &lock_packet);

    /** Output port for a flit at this router (lookahead table read;
     *  DOR-identical while the mesh is fault-free). */
    int routeOf(const FlitDesc &flit) const;

    /** The plain-port purge over one uncoded FIFO holding arrivals
     *  of input @p in_port: drops every condemned entry, keeping the
     *  rest in order, and calls @p credit() once per freed slot. */
    template <typename Credit>
    void
    purgePlain(FlitFifo &fifo, int in_port, const FlitCondemned &condemned,
               std::vector<FlitDesc> &removed, Credit &&credit)
    {
        const std::size_t n = fifo.size();
        for (std::size_t i = 0; i < n; ++i) {
            WireFlit w = fifo.pop();
            bool bad = false;
            for (const FlitDesc &d : w.parts)
                bad = bad || condemned(id_, in_port, d);
            if (!bad) {
                fifo.push(std::move(w));
                continue;
            }
            for (const FlitDesc &d : w.parts)
                removed.push_back(d);
            credit(); // a no-op if the upstream link died too
        }
    }

    /** Shared purge pass over link-retry state. A flushed entry on a
     *  live link refunds the downstream credit its original send
     *  consumed (the receiver nacked or never saw it). */
    void purgeLinkState(const FlitCondemned &condemned,
                        std::vector<FlitDesc> &removed);

    /** Refund one downstream credit for a flushed retry entry; the
     *  VC router books it against the entry's virtual channel. */
    virtual void
    refundRetryCredit(int out_port, const WireFlit &flit)
    {
        (void)flit;
        credits_[out_port] += 1;
    }

    /** Construct the configured arbiter flavour. */
    std::unique_ptr<Arbiter> makeArbiter() const;

    /** Mark this router active (called on every staging into it). */
    void wake()
    {
        if (activityWord_)
            *activityWord_ |= activityBit_;
    }

    /** Record a trace event against this router (no-op when tracing
     *  is disabled; the recorder stamps the current cycle). */
    void
    trace(TraceEventKind kind, int port, std::uint64_t id,
          std::uint32_t arg = 0)
    {
        if (tracer_)
            tracer_->record(kind, id_, port, id, arg);
    }

    /** Charge one explicit stall cycle to a flit presented at this
     *  router that cannot move this cycle (no-op when provenance is
     *  disabled or the flit is not actually located here). */
    void
    provStall(const FlitDesc &d, LatencyComponent c, Cycle now)
    {
        if (prov_)
            prov_->onStall(d.uid, c, id_, false, now);
    }

    /** Close a flit's hop span: its wire value was *accepted* onto
     *  output @p out_port this cycle (retransmissions of an already
     *  accepted value are not hop sends). Defined in router.cpp — it
     *  needs the downstream NIC's node id. */
    void provSend(const FlitDesc &d, int out_port, Cycle now);

    NodeId id_;
    const Mesh &mesh_;
    const RoutingTable *table_;
    RouterParams params_;

    /** Set once a mid-run table rebuild happened: in-flight wormholes
     *  may be inconsistent with the new tables, so lock bookkeeping
     *  tolerates foreign flits instead of asserting. Never set on a
     *  fault-free (or statically faulted) mesh. */
    bool degraded_ = false;

    std::vector<FlitFifo> in_;

    /** FIFO an arrival at @p in_port is staged into: the port's input
     *  FIFO (the VC router picks the lane the wire's VC tag names). */
    virtual FlitFifo &arrivalFifo(int in_port, const WireFlit &)
    {
        return in_[in_port];
    }

    /** Input ports holding a staged arrival (already in its FIFO):
     *  commit() walks set bits to publish them and quiescent() is a
     *  single compare. */
    RequestMask stagedInMask_ = 0;

    /** True iff a flit is staged at input @p port this cycle. */
    bool stagedAt(int port) const
    {
        return (stagedInMask_ & maskBit(port)) != 0;
    }

    /** stagedCredits_[p] is nonzero only while bit p of
     *  stagedCreditMask_ is set — commit() walks set bits, so idle
     *  ports cost nothing there. */
    std::vector<int> stagedCredits_;
    RequestMask stagedCreditMask_ = 0;
    std::vector<int> credits_;
    RequestMask connectedOutMask_ = 0; ///< see connectedOutputs()
    std::vector<FlitTarget> outTarget_;
    std::vector<CreditTarget> creditTarget_;

    /** Unacknowledged wire value of a protected output link. At most
     *  one per port: linkBusy() stalls the datapath until it clears,
     *  which is what keeps link delivery in-order. */
    struct RetryEntry
    {
        WireFlit flit;
        Cycle due = 0;      ///< retransmit time unless acked first
        bool nacked = false; ///< due set by a nack, not the timeout
    };

    FaultInjector *faults_ = nullptr; ///< nullptr = fault-free build
    TraceRecorder *tracer_ = nullptr; ///< nullptr = tracing disabled
    LatencyProvenance *prov_ = nullptr; ///< nullptr = provenance off
    std::vector<std::optional<RetryEntry>> retry_;
    std::vector<Cycle> lastLinkSend_; ///< cycle the retry buffer last
                                      ///< drove each output wire
    std::vector<int> creditsLost_;    ///< per-port credits the injector
                                      ///< swallowed, owed by watchdog

    EnergyEvents energy_;

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self, snap::Scope scope);

    std::uint64_t *activityWord_ = nullptr;
    std::uint64_t activityBit_ = 0;
};

} // namespace nox

#endif // NOX_NOC_ROUTER_HPP
