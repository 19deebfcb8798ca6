/**
 * @file
 * The mesh network: routers, NICs, wiring and the cycle loop.
 *
 * The Network is architecture-agnostic — a router factory supplied at
 * construction builds each node's router, so the same substrate hosts
 * all four evaluated microarchitectures (and any future one).
 */

#ifndef NOX_NOC_NETWORK_HPP
#define NOX_NOC_NETWORK_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "noc/energy_events.hpp"
#include "noc/fault_injector.hpp"
#include "noc/flow_table.hpp"
#include "noc/network_stats.hpp"
#include "noc/nic.hpp"
#include "noc/router.hpp"
#include "noc/routing_table.hpp"
#include "noc/traffic_source.hpp"
#include "noc/transport.hpp"
#include "obs/obs_params.hpp"

namespace nox {

/** Builds one router for a node. */
using RouterFactory = std::function<std::unique_ptr<Router>(
    NodeId, const Mesh &, const RoutingTable &, const RouterParams &)>;

/**
 * How Network::step() schedules component evaluation. There is one
 * kernel: every phase walks the active sets of routers and NICs, and
 * the mode only decides whether a quiescent component retires.
 *
 * AlwaysTick retires nothing, so every router and NIC is evaluated,
 * committed and clocked every cycle — the reference kernel.
 * ActivityDriven retires a component once it reports quiescent() at
 * commit and re-arms it when a flit or credit is staged to it, so an
 * idle mesh region costs nothing (and, as clock gating, accrues no
 * clock energy).
 */
enum class SchedulingMode : std::uint8_t {
    AlwaysTick = 0,
    ActivityDriven = 1,
};

/** Display name ("alwaystick", "activity"). */
const char *schedulingModeName(SchedulingMode mode);

/** Parse a scheduling-mode name (fatal on unknown names). */
SchedulingMode parseSchedulingMode(const char *name);

/** Largest mesh side and input-buffer depth a configured run may
 *  ask for: they bound the allocations made at construction (routers,
 *  NICs and FIFO slots grow with side² × depth). */
inline constexpr int kMaxMeshSide = 32;
inline constexpr int kMaxBufferDepth = 32;
inline constexpr int kMaxConcentration = 16;
inline constexpr int kMaxVcCount = 8;

/**
 * Network construction parameters. Configured runs get them from
 * networkParamsFromConfig(), which refuses every out-of-range value;
 * the constructor only asserts them, as invariants of programmatic
 * callers. Routing is dimension-order X-then-Y.
 */
struct NetworkParams
{
    int width = 8;
    int height = 8;
    int concentration = 1; ///< terminals per router (>1 = CMesh, §8)
    RouterParams router;   ///< numPorts is derived from concentration
    int sinkBufferDepth = 4;
    SchedulingMode schedulingMode = SchedulingMode::AlwaysTick;
    FaultParams faults; ///< link-fault injection (disabled by default)
    ObsParams obs;      ///< tracing + metrics (disabled by default)

    /**
     * Deliberate-divergence knob (test/debug only): at the end of the
     * step whose ending cycle equals @p debugPerturbCycle, corrupt one
     * arbiter decision in router @p debugPerturbRouter (see
     * Router::debugPerturb). Seeds a known, cycle-exact divergence for
     * exercising the digest ledger and `trace_tool bisect`; 0 =
     * disabled. Applied after the kernel commits and before the
     * digest stride is captured, so the first differing stride is
     * labeled with exactly this cycle. The router id must name a
     * router of the mesh.
     */
    Cycle debugPerturbCycle = 0;
    NodeId debugPerturbRouter = 0;
};

class Config;

/**
 * Read the mesh and router keys (width, height, concentration,
 * buffer_depth, which also sizes the sinks, and vc_count, each up to
 * its kMax constant), then faultParamsFromConfig() and
 * obsParamsFromConfig(). Fatal, naming the key, on a value out of
 * range or a mesh of fewer than 2 nodes.
 */
NetworkParams networkParamsFromConfig(const Config &config);

/**
 * Structured diagnosis of a drain attempt. When a drain times out —
 * typically only under fault injection with recovery off, where
 * dropped flits strand their packets — the report names the
 * non-quiescent components and the partially-delivered packets, so a
 * fault-induced livelock is debuggable instead of a bare `false`.
 */
struct DrainReport
{
    bool drained = true;
    Cycle stoppedAt = 0;
    std::uint64_t packetsInFlight = 0;

    /** Packets deliberately written off by the hard-fault machinery
     *  (in flight on a dying link or stranded unreachable; cumulative
     *  over the run). These are accounted losses, not stalls: they do
     *  not block drained. */
    std::uint64_t undeliverablePackets = 0;

    /** Packets still genuinely in flight at stop — the count that
     *  decides drained (0 = success). */
    std::uint64_t stalledPackets = 0;

    std::vector<NodeId> busyRouters; ///< non-quiescent routers
    std::vector<NodeId> busyNics;    ///< non-quiescent NICs

    /** Packets some of whose flits reached the destination NIC
     *  (node, packet id, flits arrived so far), sorted. */
    struct PartialPacket
    {
        NodeId node = kInvalidNode;
        PacketId packet = kInvalidPacket;
        std::uint32_t flitsArrived = 0;
    };
    std::vector<PartialPacket> partialPackets;

    /** One-paragraph human-readable rendering of the diagnosis. */
    std::string summary() const;
};

/** A width x height mesh of single-cycle routers plus per-node NICs. */
class Network : public PacketInjector,
                public SinkListener,
                public TransportListener
{
  public:
    Network(const NetworkParams &params, RouterFactory factory);

    /** Attach a per-node traffic source (at most one per node). */
    void addSource(std::unique_ptr<TrafficSource> source);

    /** Enable/disable source ticking (off while draining a run). A
     *  paused source makes no draws; see TrafficSource::resume(). */
    void setSourcesEnabled(bool enabled);

    /** Advance one clock cycle. */
    void step();

    /** Advance @p cycles clock cycles. */
    void run(Cycle cycles);

    /**
     * Step until every injected packet has been delivered or @p limit
     * cycles elapse. @return true if fully drained. On timeout, a
     * structured diagnosis of the stuck components is available via
     * lastDrainReport().
     */
    bool drain(Cycle limit);

    /** Diagnosis of the most recent drain() call. */
    const DrainReport &lastDrainReport() const
    {
        return drainReport_;
    }

    /** Restrict latency measurement to packets created in
     *  [start, end); throughput is counted over the same window. */
    void setMeasurementWindow(Cycle start, Cycle end);

    Cycle now() const { return now_; }
    SchedulingMode schedulingMode() const
    {
        return params_.schedulingMode;
    }

    /** Routers currently in the active set (all of them under the
     *  always-tick kernel, which retires nothing; introspection for
     *  tests and benches). */
    int activeRouters() const;

    /** NICs currently in the active set. */
    int activeNics() const;

    const Mesh &mesh() const { return mesh_; }
    int numNodes() const { return mesh_.numNodes(); }
    int numRouters() const { return mesh_.numRouters(); }

    /** The shared routing table (tests inspect rebuilds/reachability). */
    const RoutingTable &routingTable() const { return table_; }

    /** The applied hard-fault map. */
    const FaultMap &faultMap() const { return faultMap_; }
    Router &router(NodeId r) { return *routers_[r]; }
    const Router &router(NodeId r) const { return *routers_[r]; }
    Nic &nic(NodeId n) { return *nics_[n]; }
    const NetworkStats &stats() const { return stats_; }

    /** The fault injector, or nullptr when injection is disabled
     *  (tests use it to schedule targeted one-shot faults). */
    FaultInjector *faultInjector() { return faults_.get(); }
    const FaultInjector *faultInjector() const { return faults_.get(); }

    /** The trace recorder, or nullptr when tracing is disabled. */
    TraceRecorder *tracer() { return tracer_.get(); }
    const TraceRecorder *tracer() const { return tracer_.get(); }

    /** The metrics sampler, or nullptr when sampling is disabled. */
    MetricsSampler *metrics() { return metrics_.get(); }
    const MetricsSampler *metrics() const { return metrics_.get(); }

    /** The latency-provenance observer, or nullptr when disabled. */
    LatencyProvenance *provenance() { return prov_.get(); }
    const LatencyProvenance *provenance() const { return prov_.get(); }

    /** The simulator self-profiler, or nullptr when disabled. */
    PhaseProfiler *profiler() { return profiler_.get(); }
    const PhaseProfiler *profiler() const { return profiler_.get(); }

    /** The run-telemetry heartbeat, or nullptr when disabled. */
    RunTelemetry *telemetry() { return telemetry_.get(); }
    const RunTelemetry *telemetry() const { return telemetry_.get(); }

    /** The simulation-side fields of a telemetry heartbeat, as of the
     *  current cycle (checkpoint age and digest fields stay -1 while
     *  telemetry or the ledger is off). */
    TelemetrySample telemetrySample() const;

    /** The state-digest ledger, or nullptr when disabled. */
    DigestLedger *digest() { return digest_.get(); }
    const DigestLedger *digest() const { return digest_.get(); }

    /**
     * Capture one digest stride of the current state: the canonical
     * Digest-scope serialize() bytes of every component, hashed
     * per-component (see obs/digest.hpp). Must be called between
     * steps, like serialize(). Usable with the ledger off — tests and
     * the bisector digest networks that were built without one.
     * @p scratch is reused across components and strides.
     */
    DigestStride computeDigestStride(snap::Writer &scratch) const;

    /** Convenience overload with a throwaway scratch buffer. */
    DigestStride
    computeDigestStride() const
    {
        snap::Writer scratch;
        return computeDigestStride(scratch);
    }

    /**
     * End-of-run observability flush: closes the final partial
     * metrics window and writes the configured exports (metrics
     * JSONL, Chrome trace JSON). Idempotent on the window flush;
     * call once after the last step()/drain().
     */
    void finishObservability();

    std::uint64_t packetsInFlight() const;

    /** Sum of all router + NIC energy-event counters. */
    EnergyEvents totalEnergyEvents() const;

    // -- checkpointing --

    /**
     * Arm periodic checkpointing: after every step() whose ending
     * cycle is a multiple of @p interval, @p hook is invoked with
     * this network. The hook's owner (runner or tool) decides what
     * to serialize around the network section and where to write it —
     * the Network itself never touches the filesystem.
     */
    void installCheckpoint(Cycle interval,
                           std::function<void(Network &)> hook);

    /**
     * Construction-parameter fingerprint embedded in snapshots and
     * cross-checked at restore: two Networks with equal fingerprints
     * are structurally identical (same topology, microarchitecture,
     * fault plan and observability geometry), so restoring one's
     * dynamic state into the other is well-defined.
     */
    std::string fingerprint() const;

    /**
     * Capture / restore the complete dynamic state. Must be called
     * between steps (no staged effects in flight). restore() expects
     * a freshly constructed Network with the same construction
     * parameters (enforced upstream via fingerprint()); it replays
     * the snapshot's hard-fault topology onto this network before
     * overwriting any component state.
     *
     * In snap::Scope::Digest only the network-global trajectory state
     * is written — the Snapshot-scope prefix minus the age-dump latch
     * (set only when a tracer is attached), the active and
     * previous-active sets (kernel bookkeeping) and the metrics
     * window baselines (observer-owned). computeDigestStride() hashes
     * every component separately with its own Digest-scope visitor.
     */
    void serialize(snap::Writer &w,
                   snap::Scope scope = snap::Scope::Snapshot) const;
    void restore(snap::Reader &r);

    // -- PacketInjector --
    PacketId injectPacket(NodeId src, NodeId dst, int num_flits,
                          Cycle now, TrafficClass cls) override;
    std::size_t sourceQueueFlits(NodeId node) const override;

    // -- SinkListener --
    void onFlitDelivered(NodeId node, const FlitDesc &flit,
                         Cycle now) override;
    void onPacketCompleted(NodeId node, const FlitDesc &last_flit,
                           Cycle head_inject, Cycle now) override;

    // -- TransportListener --
    bool onE2eResend(PacketId base, const TransportEntry &e) override;
    void onE2eAck(PacketId base, const TransportEntry &e) override;
    void onE2eFail(PacketId base, const TransportEntry &e) override;

    /** The E2E transport layer, or nullptr when disabled. */
    const E2eTransport *transport() const { return transport_.get(); }

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self, snap::Scope scope);

    /** Emit SchedWake for components that (re)entered the active set
     *  since the previous cycle (tracing only). */
    void traceWakes();

    /** Tick the sources due at now_, in ascending id order. */
    void tickDueSources();

    /** Record that source @p id is due at @p due (>= now_) and index
     *  the date on the wheel or the far heap. */
    void scheduleSource(std::size_t id, Cycle due);

    /** Re-index every source's due date (after a resume or restore,
     *  or when the wheel grows). */
    void rearmSources();

    /** The clock a source serializes against (TrafficSource::
     *  serialize): now_, or the cycle the sources were paused at. */
    Cycle sourceClock() const
    {
        return sourcesEnabled_ ? now_ : pausedAt_;
    }

    /** Close the metrics window ending at the current cycle. */
    void sampleMetricsWindow();

    /** The flits of wire packet @p packet, built into the injection
     *  scratch (ids, payloads and VC follow from packet and class). */
    const std::vector<FlitDesc> &
    buildFlits(PacketId packet, NodeId src, NodeId dest,
               std::uint32_t num_flits, Cycle created, TrafficClass cls,
               std::uint32_t flow_seq);

    /**
     * Apply every hard fault due at the current cycle: kill the
     * targeted links/routers (in-flight flits on them are lost),
     * rebuild the routing table, and — mid-run only — notify the
     * routers and purge every flit that the new topology can no
     * longer deliver. @p at_construction skips the notification and
     * purge: nothing is in flight yet, and the routers must not enter
     * degraded mode for faults that predate all traffic.
     */
    void applyDueHardFaults(bool at_construction);

    /** Sever the link out of @p router via @p port (both directions),
     *  collecting in-flight casualties. */
    void killLink(NodeId router, int port, std::vector<FlitDesc> &lost);

    /** Kill @p router, all its mesh links and its terminal NICs. */
    void killRouter(NodeId router, std::vector<FlitDesc> &lost);

    /** Re-wire the mesh link out of @p router via @p port in both
     *  directions (as at construction) and refresh both endpoints'
     *  per-port state. Both endpoint routers must be alive. */
    void wireLink(NodeId router, int port);

    /** Heal the explicit link fault on (@p router, @p port), re-wiring
     *  the channel when neither endpoint router remains dead.
     *  @p record counts the heal (false during snapshot replay, where
     *  the restored stats already include it). */
    void healLink(NodeId router, int port, bool record = true);

    /** Revive @p router: re-wire every mesh link not still explicitly
     *  dead and re-attach its terminal NICs (quiescent and empty). */
    void healRouter(NodeId router, bool record = true);

    /** True when traffic has fully settled: nothing in flight and —
     *  with the transport on — no open retransmission window and all
     *  components quiescent (stale attempt flits must reach the
     *  destination door and be suppressed there). */
    bool drainComplete() const;

    /** Age-watchdog sweep (packetAgeLimit > 0 only). */
    void checkPacketAges();

    /** Track the peak source-queue occupancy of NIC @p node. Runs in
     *  the cycle loop: direct Nic::enqueuePacket() calls bypass
     *  injectPacket()'s sampling and only this sweep can see them. */
    void sampleSourceQueue(NodeId node)
    {
        stats_.maxSourceQueueFlits =
            std::max(stats_.maxSourceQueueFlits,
                     nics_[static_cast<std::size_t>(node)]
                         ->sourceQueueFlits());
    }

    NetworkParams params_;
    Mesh mesh_;
    RoutingTable table_;  ///< shared by all routers (built first)
    FaultMap faultMap_;   ///< accumulated hard faults
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Nic>> nics_;
    std::vector<std::unique_ptr<TrafficSource>> sources_;
    /** The source calendar: the cycle each source is due at
     *  (kNeverDue: never again), indexed by a timing wheel — one
     *  bitset over source ids per slot, for dates less than
     *  kWheelSlots cycles ahead — and a min-heap of later dates. The
     *  index goes stale while the sources are paused and is rebuilt
     *  from sourceDue_ on resume and on restore. */
    static constexpr Cycle kWheelSlots = 256;
    std::vector<Cycle> sourceDue_;
    std::vector<std::uint64_t> sourceWheel_; ///< slot-major bitsets
    std::size_t sourceWords_ = 0;            ///< words per slot
    std::vector<std::pair<Cycle, std::size_t>> sourceFar_;
    Cycle pausedAt_ = 0; ///< first paused cycle (sources paused)
    std::unique_ptr<FaultInjector> faults_;
    std::unique_ptr<E2eTransport> transport_;
    std::unique_ptr<TraceRecorder> tracer_;
    std::unique_ptr<MetricsSampler> metrics_;
    std::unique_ptr<LatencyProvenance> prov_;
    /** Self-profiler and heartbeat: per-process wall-clock observers,
     *  so deliberately neither serialized nor fingerprinted — a
     *  resumed run may toggle them freely. */
    std::unique_ptr<PhaseProfiler> profiler_;
    std::unique_ptr<RunTelemetry> telemetry_;
    /** State-digest ledger: per-run *output* about the trajectory,
     *  not simulation state — neither serialized nor fingerprinted,
     *  so a bisection re-run may restore a digest-off checkpoint
     *  into a digest-on network. */
    std::unique_ptr<DigestLedger> digest_;
    DrainReport drainReport_;

    /** Per-router counter values at the last closed metrics window
     *  (to form window deltas of the monotonic counters). */
    std::vector<std::uint64_t> lastLinkFlits_;
    std::vector<std::uint64_t> lastCollisions_;

    /** Active sets: bit id%64 of word id/64 per router / node id,
     *  sized once at construction and never reallocated. Under the
     *  activity kernel routers and NICs hold a pointer to their word
     *  (bindActivity) and set their bit on any staging; step() clears
     *  it on quiescent retirement. Under always-tick every bit stays
     *  set. */
    std::vector<std::uint64_t> routerActive_;
    std::vector<std::uint64_t> nicActive_;
    /** Router evaluation walks a per-cycle copy of routerActive_: a
     *  router woken mid-phase starts evaluating next cycle. */
    std::vector<std::uint64_t> evalRouters_;

    /** Previous-cycle active sets (SchedWake edge detection; only
     *  maintained when tracing). */
    std::vector<std::uint64_t> prevRouterActive_;
    std::vector<std::uint64_t> prevNicActive_;
    std::vector<FlitDesc> scratchInjectFlits_; ///< injectPacket() reuse

    NetworkStats stats_;
    Cycle now_ = 0;
    PacketId nextPacket_ = 1;
    bool sourcesEnabled_ = true;

    /** Periodic checkpoint trigger (0 = disabled). */
    Cycle checkpointInterval_ = 0;
    std::function<void(Network &)> checkpointHook_;

    /** Per-flow (src, dest) end-to-end sequence numbers, stamped at
     *  injection and checked at completion (faults enabled only). */
    FlowTable<std::uint32_t> flowNextSeq_;
    FlowTable<std::uint32_t> flowMaxDone_;

    /** Age-watchdog state (packetAgeLimit > 0 only). */
    std::deque<std::pair<PacketId, Cycle>> ageQueue_;
    std::unordered_set<PacketId> ageInFlight_;
    bool ageDumpLatched_ = false;
};

} // namespace nox

#endif // NOX_NOC_NETWORK_HPP
