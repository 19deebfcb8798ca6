/**
 * @file
 * Per-packet latency provenance: an online span builder that
 * decomposes every delivered packet's end-to-end latency into exact,
 * conserved components.
 *
 * The model is a telescoping sequence of *segments* per flit: source
 * queue residence, then one segment per hop (arrival at a router's
 * input FIFO until the cycle its wire value drives the output link),
 * and a final ejection segment at the sink NIC. Within each segment
 * the emitting component charges *explicit* stall cycles (credit
 * starvation, lost arbitration, XOR-collision recovery, retransmission
 * wait, reroute penalties) to the blocked flit, one cycle at a time,
 * from the same code branches that already decide the flit cannot
 * move; whatever remains of the segment is structural and is split
 * into the productive pipeline traversal (1 cycle per hop, 2 for the
 * ejection segment — matching the simulator's `latency = Δ + 1`
 * convention) and link/queue serialization. Because the segment
 * boundaries telescope from createCycle to delivery, the components
 * of every flit sum *exactly* to its measured latency:
 *
 *   sum(components) == deliverCycle - createCycle + 1
 *
 * for every delivered flit, across all router microarchitectures,
 * scheduling kernels, and fault modes. The invariant is re-validated
 * on every delivery; `conservationViolations()` stays zero on a
 * correct build.
 *
 * Two guards make the explicit charges safe without any coupling into
 * the routers' decision logic:
 *   - a *location* guard: a charge is accepted only when the charging
 *     component (router id / NIC node) matches where the tracker last
 *     placed the flit, so a stale reference held by an upstream retry
 *     buffer or a not-yet-arrived XOR constituent can never charge;
 *   - a *per-cycle* guard: at most one stall cycle per flit per
 *     cycle, so overlapping branches cannot double-bill.
 *
 * Like the PR 3 tracer and sampler, the provenance observer only
 * reads simulator state: enabling it must leave NetworkStats
 * bit-identical (enforced by the observer-effect tests). Aggregated
 * breakdowns therefore live here, not in NetworkStats.
 */

#ifndef NOX_OBS_PROVENANCE_HPP
#define NOX_OBS_PROVENANCE_HPP

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "noc/flit.hpp"
#include "noc/flow_table.hpp"
#include "noc/types.hpp"

namespace nox {

namespace snap {
class Writer;
class Reader;
} // namespace snap

/**
 * Where a cycle of latency went. Every cycle of every delivered
 * packet's latency is attributed to exactly one of these.
 */
enum class LatencyComponent : std::uint8_t {
    /** Waiting in the source NIC queue before injection. */
    SourceQueue = 0,
    /** Productive pipeline traversal: one cycle per hop that actually
     *  moved the flit, plus the ejection decode/deliver stage. */
    RouterPipeline,
    /** Structural serialization: link propagation, FIFO position
     *  behind same-output siblings, and any residual wait not claimed
     *  by an explicit stall cause below. */
    LinkSerialization,
    /** Head flit presented but the output had no downstream credit. */
    CreditStall,
    /** Head flit requested an output and lost arbitration (or was
     *  fairness/wormhole-lock masked) to another input. */
    ArbLoss,
    /** NoX XOR machinery: collision losers awaiting chain decode,
     *  decode-register latch bubbles, multi-flit collision aborts,
     *  and Recovery-mode switch masking. */
    XorRecovery,
    /** Output link held by the soft-fault retry buffer: the cycles a
     *  nacked wire value spends waiting for / driving retransmission,
     *  and the cycles downstream traffic waits behind it. */
    Retransmit,
    /** Hard-fault degraded mode: abandoned wormhole locks and other
     *  post-rebuild reroute penalties. */
    Reroute,
};

/** Number of distinct latency components. */
constexpr std::size_t kNumLatencyComponents = 8;

/** Stable display name ("source_queue", "credit_stall", ...). */
const char *latencyComponentName(LatencyComponent c);

/** Configuration for the provenance observer. */
struct ProvenanceParams
{
    bool enabled = false;
    /** JSONL export path for the aggregated breakdowns ("" = none). */
    std::string jsonlPath;
};

/**
 * Aggregated latency attribution over a set of delivered packets.
 * `componentsSum() == totalCycles` whenever conservation held for
 * every contributing packet.
 */
struct LatencyBreakdown
{
    std::uint64_t packets = 0;
    std::uint64_t totalCycles = 0;
    std::array<std::uint64_t, kNumLatencyComponents> comp{};

    void
    add(std::uint64_t latency,
        const std::array<std::uint64_t, kNumLatencyComponents> &c)
    {
        ++packets;
        totalCycles += latency;
        for (std::size_t i = 0; i < kNumLatencyComponents; ++i)
            comp[i] += c[i];
    }

    std::uint64_t
    componentsSum() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t v : comp)
            s += v;
        return s;
    }

    std::uint64_t
    operator[](LatencyComponent c) const
    {
        return comp[static_cast<std::size_t>(c)];
    }

    bool
    identicalTo(const LatencyBreakdown &o) const
    {
        return packets == o.packets && totalCycles == o.totalCycles &&
               comp == o.comp;
    }
};

/**
 * The online per-flit span builder. One instance observes one
 * Network; the Network and its routers/NICs call the hooks below from
 * the same places that feed the PR 3 tracer.
 */
class LatencyProvenance
{
  public:
    explicit LatencyProvenance(const ProvenanceParams &params)
        : params_(params)
    {
    }

    const ProvenanceParams &params() const { return params_; }

    /** Packets created outside [start, end) are tracked (their cycles
     *  must still conserve) but excluded from the aggregates, mirroring
     *  NetworkStats' measurement window. */
    void
    setMeasurementWindow(Cycle start, Cycle end)
    {
        measureStart_ = start;
        measureEnd_ = end;
    }

    /** A packet entered a source queue: start one span per flit. */
    void onPacketCreate(const std::vector<FlitDesc> &flits, Cycle now);

    /**
     * An E2E retransmission attempt entered its source queue. Like
     * onPacketCreate, but the spans keep the *original* create cycle
     * (latency is logical-packet latency) and the cycles between that
     * original create and @p now — already spent by earlier, lost
     * attempts — are charged to Retransmit up front, preserving
     * conservation for whichever attempt completes the packet.
     */
    void onRetransmit(const std::vector<FlitDesc> &flits, Cycle now);

    /** Flit left the source queue into @p router's input FIFO. */
    void onInject(std::uint64_t uid, NodeId router, Cycle now);

    /**
     * Flit's wire value was accepted onto an output link this cycle.
     * Closes the current hop segment and opens the next at
     * (@p target, @p target_is_nic). Retransmissions of a previously
     * accepted value are NOT hop sends.
     */
    void onHopSend(std::uint64_t uid, Cycle now, NodeId target,
                   bool target_is_nic);

    /**
     * Charge one explicit stall cycle to @p uid, attributed to @p c.
     * Ignored unless the charging location (@p node, @p nic) matches
     * the flit's tracked position and no charge has landed this cycle.
     */
    void onStall(std::uint64_t uid, LatencyComponent c, NodeId node,
                 bool nic, Cycle now);

    /**
     * Flit delivered at its sink. Validates conservation, folds the
     * completing flit of each measured packet into the aggregates,
     * and retires the span.
     */
    void onDelivered(const FlitDesc &flit, Cycle now,
                     bool completes_packet);

    /** Hard-fault write-off: drop spans for condemned flits. */
    void forgetFlits(const std::vector<std::uint64_t> &uids);

    /** Duplicate-suppression write-off: drop one flit's span (the
     *  flit was dropped at the destination door, never delivered). */
    void forgetFlit(std::uint64_t uid) { tracks_.erase(uid); }

    const LatencyBreakdown &total() const { return total_; }

    const LatencyBreakdown &
    byClass(TrafficClass cls) const
    {
        return byClass_[static_cast<std::size_t>(cls)];
    }

    /** Per-(src,dest) flow aggregates, keyed by flowKey(). */
    const std::unordered_map<std::uint64_t, LatencyBreakdown> &
    byFlow() const
    {
        return byFlow_;
    }

    /** Deliveries whose components failed to sum to the measured
     *  latency. Zero on a correct build; asserted by tests and
     *  nettest. */
    std::uint64_t
    conservationViolations() const
    {
        return conservationViolations_;
    }

    /** Spans still open (in-flight or never-delivered flits). */
    std::size_t openSpans() const { return tracks_.size(); }

    /**
     * Export the aggregates as JSONL: one "total" row, one row per
     * traffic class with deliveries, one row per flow. Every row
     * carries all eight component fields plus packets/total_cycles so
     * downstream checks can re-verify conservation. Returns false if
     * the file could not be written.
     */
    bool writeJsonl(const std::string &path) const;

    /** Capture / restore open spans and aggregates (checkpointing). */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** Open span state for one in-flight flit. */
    struct FlitTrack
    {
        Cycle segStart = 0;    ///< cycle the current segment opened
        Cycle lastCharge =     ///< cycle of the last explicit charge
            std::numeric_limits<Cycle>::max();
        std::uint32_t segStalls = 0; ///< explicit charges this segment
        NodeId at = kInvalidNode;    ///< tracked location (component)
        bool nic = false;            ///< location is a NIC
        bool injected = false;       ///< left the source queue
        Cycle createCycle = 0;
        TrafficClass cls = TrafficClass::Synthetic;
        PacketId packet = kInvalidPacket;
        NodeId src = kInvalidNode;
        NodeId dest = kInvalidNode;
        std::array<std::uint64_t, kNumLatencyComponents> comp{};
    };

    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    /** Close the open segment at @p now: charge @p pipeline productive
     *  cycles and attribute the unexplained remainder to
     *  LinkSerialization. */
    void closeSegment(FlitTrack &t, Cycle now, std::uint64_t pipeline);

    ProvenanceParams params_;
    Cycle measureStart_ = 0;
    Cycle measureEnd_ = std::numeric_limits<Cycle>::max();
    std::unordered_map<std::uint64_t, FlitTrack> tracks_;
    LatencyBreakdown total_;
    std::array<LatencyBreakdown, 3> byClass_{};
    std::unordered_map<std::uint64_t, LatencyBreakdown> byFlow_;
    std::uint64_t conservationViolations_ = 0;
};

} // namespace nox

#endif // NOX_OBS_PROVENANCE_HPP
