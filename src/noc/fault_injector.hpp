/**
 * @file
 * Deterministic link-fault injection.
 *
 * The injector perturbs traffic at the inter-router link boundary
 * (flit bit flips, whole-flit drops, lost credits) and keeps the
 * authoritative record of every injected event. Local (router<->NIC)
 * links are modelled as short, protected terminal connections and are
 * never faulted; the long global mesh wires are where upsets happen.
 *
 * Determinism: every decision is a pure function of the fault seed and
 * the event's identity (cycle, receiving router, input port, kind) —
 * a hash-keyed stream rather than a sequential one. Because link
 * events themselves are identical across scheduling kernels, the same
 * seed therefore produces the same fault schedule — and bit-identical
 * NetworkStats — under alwaystick and activity scheduling,
 * regardless of which components happen to be evaluated.
 * The stream is independent of every traffic RNG.
 */

#ifndef NOX_NOC_FAULT_INJECTOR_HPP
#define NOX_NOC_FAULT_INJECTOR_HPP

#include <cstdint>
#include <utility>
#include <vector>

#include "noc/network_stats.hpp"
#include "noc/types.hpp"
#include "obs/trace_recorder.hpp"

namespace nox {

class Config;
class Mesh;

/** The fault classes: transient link upsets, fail-stop kills, and
 *  the heal events that undo them. */
enum class FaultKind : std::uint8_t {
    BitFlip = 0,    ///< one payload bit inverted in flight
    Drop = 1,       ///< the whole wire value vanishes
    CreditLoss = 2, ///< a returning credit vanishes
    LinkDead = 3,   ///< a bidirectional mesh link fails
    RouterDead = 4, ///< a whole router (and its links) fails
    LinkHeal = 5,   ///< a killed link comes back into service
    RouterHeal = 6, ///< a killed router (and its NIC) revives
};

/** Display name ("bitflip", ..., "linkheal", "routerheal"). */
const char *faultKindName(FaultKind kind);

/** True for the fail-stop kill/heal kinds handled by the hard-fault
 *  queue (as opposed to the per-event soft upsets). */
inline bool
faultKindHard(FaultKind kind)
{
    return kind == FaultKind::LinkDead ||
           kind == FaultKind::RouterDead ||
           kind == FaultKind::LinkHeal ||
           kind == FaultKind::RouterHeal;
}

/** Cycles between a received nack and the retransmission (nack
 *  turnaround of the link-level protocol). */
inline constexpr Cycle kNackDelay = 1;

/** Most churn waves a configured run may plan (each wave queues its
 *  kill and heal events at construction). */
inline constexpr int kMaxChurnWaves = 1024;

/** Fault-injection configuration (all rates are per link event). */
struct FaultParams
{
    /** Master switch; no injector is built when false. */
    bool enabled = false;

    double bitflipRate = 0.0;    ///< P(one payload bit flips) per flit
    double dropRate = 0.0;       ///< P(flit lost) per link traversal
    double creditLossRate = 0.0; ///< P(credit lost) per credit return

    /** Seed of the injector's own stream (independent of traffic). */
    std::uint64_t seed = 0xFA01;

    /**
     * Link-level protection: CRC stamped at send and checked at
     * receive, nack/timeout-driven retransmission from a per-port
     * retry buffer, and the credit watchdog. With protection off the
     * fabric is raw: corruption propagates (detected only by decode
     * integrity checks and the sink payload check) and dropped flits
     * or credits are simply lost.
     */
    bool protect = true;

    /** Cycles a sender waits for the (synchronous) ack before it
     *  declares the flit dropped and retransmits. */
    Cycle retryTimeout = 8;

    /** Period of the credit watchdog's divergence audit. */
    Cycle watchdogPeriod = 64;

    /** Hard (fail-stop) faults planned at construction: this many
     *  distinct internal mesh links / routers are killed, drawn
     *  deterministically from the fault seed. */
    int hardLinkFaults = 0;
    int hardRouterFaults = 0;

    /** Cycle the planned hard faults fire at. 0 (default) kills at
     *  construction, before any traffic; a later cycle exercises the
     *  mid-run graceful-degradation path (in-flight flits on dying
     *  links are lost and counted). */
    Cycle hardFaultCycle = 0;

    /** Per-packet age watchdog: a packet in flight longer than this
     *  many cycles latches the flight recorder once (livelock alarm).
     *  0 disables the watchdog. */
    Cycle packetAgeLimit = 0;

    // -- E2E transport (source-side exactly-once delivery) --

    /** Enable the NIC transport layer: source-side in-flight window,
     *  destination acks and duplicate suppression, timeout-driven
     *  whole-packet retransmission. Turns hard-fault write-offs into
     *  recoverable losses. */
    bool e2eTransport = false;

    /** Cycles without delivery before the source retransmits. */
    Cycle e2eTimeout = 2000;

    /** Retransmission attempts before a packet is abandoned as a
     *  deliveryFailure (bounded so a permanently dead destination
     *  cannot stall drain forever). Capped at 255 by the attempt
     *  encoding. */
    int e2eRetryLimit = 16;

    /** Cycles between a completed delivery and the E2E ack retiring
     *  the source window entry (models the return-path latency). */
    Cycle e2eAckDelay = 8;

    // -- fault churn (seeded kill + heal waves) --

    /** Number of kill+heal waves. Each wave kills churnRouters
     *  routers and churnLinks links at its wave cycle and heals the
     *  same victims churnHealAfter cycles later; all draws are
     *  hash-keyed off the fault seed. */
    int churnWaves = 0;

    /** Cycle of the first wave's kills. */
    Cycle churnStart = 5000;

    /** Spacing between consecutive waves' kill cycles. */
    Cycle churnPeriod = 20000;

    /** Delay from a wave's kills to its heals. */
    Cycle churnHealAfter = 8000;

    /** Victims per wave. */
    int churnLinks = 2;
    int churnRouters = 1;

    bool
    anyRate() const
    {
        return bitflipRate > 0.0 || dropRate > 0.0 ||
               creditLossRate > 0.0;
    }

    bool
    anyHard() const
    {
        return hardLinkFaults > 0 || hardRouterFaults > 0 ||
               churnWaves > 0;
    }
};

/**
 * Read `fault_*` keys from @p config:
 *   fault_bitflip_rate=, fault_drop_rate=, fault_credit_loss_rate=
 *   (0..1), fault_seed=, fault_recovery= (default true),
 *   fault_retry_timeout=, fault_watchdog_period=, hard_link_faults=,
 *   hard_router_faults=, hard_fault_cycle=, fault_age_limit=,
 *   e2e_transport=, e2e_timeout= (1 or more), e2e_retry_limit=
 *   (0..255), e2e_ack_delay=, churn_waves= (0..kMaxChurnWaves),
 *   churn_start=, churn_period=, churn_heal_after=, churn_links=,
 *   churn_routers=. Fatal, naming the key, on a value out of range
 *   (planHardFaults() refuses victim counts the mesh cannot hold).
 * `enabled` is set when any rate, hard-fault count, churn wave or the
 * E2E transport is requested, or fault_seed/fault_recovery/
 * fault_age_limit is given explicitly.
 */
FaultParams faultParamsFromConfig(const Config &config);

/** One injected fault, as recorded in the fault log. */
struct FaultEvent
{
    Cycle cycle = 0;
    FaultKind kind = FaultKind::BitFlip;
    NodeId router = kInvalidNode; ///< receiving router
    int port = -1;                ///< receiving input port (flits) or
                                  ///< sender output port (credits)
    std::uint64_t flipMask = 0;   ///< payload bits inverted (BitFlip)
};

/** Outcome of the fault draw for one flit link traversal. */
struct FlitFaults
{
    std::uint64_t flipMask = 0; ///< payload bits to invert (0 = none)
    bool dropped = false;
};

/**
 * Deterministic, seeded fault source shared by all routers of one
 * network. Also owns the fault log and (unless rebound) the
 * FaultStats counters the defence layers report into.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultParams &params);

    const FaultParams &params() const { return params_; }
    bool protectEnabled() const { return params_.protect; }

    /** Advance the injector's notion of time (once per Network
     *  cycle, before any evaluation phase). */
    void beginCycle(Cycle now) { now_ = now; }
    Cycle now() const { return now_; }

    /** Point the counters at external storage (the Network binds its
     *  NetworkStats::faults here). */
    void bindStats(FaultStats *stats) { stats_ = stats; }
    const FaultStats &stats() const { return *stats_; }

    /** Attach the network's trace recorder: every injected fault is
     *  then also recorded as a FaultInject trace event. */
    void attachTracer(TraceRecorder *tracer) { tracer_ = tracer; }

    /**
     * Schedule a targeted one-shot fault: fires on the first matching
     * link event at/after @p cycle on (receiving router, port) —
     * irrespective of the configured rates. @p flip_mask selects the
     * payload bits to invert for BitFlip (0 picks bit 0).
     *
     * Hard kinds (LinkDead/RouterDead and their heal inverses) are
     * routed to the hard-fault queue instead: they fire via
     * takeDueHardFaults() at @p cycle (@p router is the dying or
     * reviving router; @p port is the output port of the affected
     * link for the link kinds, ignored for the router kinds).
     */
    void scheduleOneShot(FaultKind kind, Cycle cycle, NodeId router,
                         int port, std::uint64_t flip_mask = 0);

    /** Pending (not yet fired) one-shot faults. */
    std::size_t pendingOneShots() const;

    // -- hard (fail-stop) faults and heals --

    /** One planned or scheduled fail-stop fault or heal event. */
    struct HardFault
    {
        FaultKind kind = FaultKind::LinkDead;
        Cycle cycle = 0;
        NodeId router = kInvalidNode; ///< affected router / endpoint
        int port = -1; ///< output port of the affected link (link kinds)
    };

    /**
     * Draw the configured hardLinkFaults/hardRouterFaults from the
     * fault seed: distinct routers first, then distinct canonical
     * internal links (East/South, both endpoints still live) — plus
     * the churn schedule: churnWaves waves of paired kill/heal
     * events, each wave's victims hash-drawn from the seed and
     * disjoint from the permanent kills (a churn heal must never
     * resurrect a permanently killed entity). Pure function of the
     * seed and @p mesh — every scheduling kernel sees the identical
     * schedule. Fatal, naming the key and its bound, when the mesh
     * cannot hold a victim count (every kill must leave a live
     * router). Call once at network construction.
     */
    void planHardFaults(const Mesh &mesh);

    /** Remove and return every hard kill/heal due at/before @p now.
     *  Kills are recorded in the stats, log and trace immediately;
     *  heal events are recorded by the Network via recordHeal() only
     *  once actually applied (a churn heal whose victim was never
     *  killed — e.g. overlapping waves — is a silent no-op). */
    std::vector<HardFault> takeDueHardFaults(Cycle now);

    /** Record one *applied* heal in the stats, log and trace. */
    void recordHeal(FaultKind kind, NodeId router, int port);

    /** True while any hard fault is still queued. */
    bool hardFaultsPending() const { return !hardFaults_.empty(); }

    // -- draws, called by the link layer at event boundaries --

    /** Fault draw for a flit arriving at (router, in_port). Records
     *  any injected fault in the counters and log. */
    FlitFaults drawFlitFaults(NodeId router, int in_port);

    /** True iff the credit returning to (router, out_port) is lost.
     *  @p salt distinguishes multiple credits on the same port in the
     *  same cycle (index, or VC id for per-VC credit returns). */
    bool drawCreditLoss(NodeId router, int out_port,
                        std::uint64_t salt = 0);

    // -- detection / recovery reporting from the defence layers --

    void
    onCorruptionRejected() // link CRC caught a bad flit
    {
        stats_->faultsDetected += 1;
    }
    void
    onDropDetected() // retry timeout expired: flit declared lost
    {
        stats_->faultsDetected += 1;
    }
    void
    onRetransmission()
    {
        stats_->retransmissions += 1;
    }
    void
    onCreditResync(std::uint64_t credits_restored)
    {
        stats_->creditResyncs += 1;
        stats_->faultsDetected += credits_restored;
    }
    void
    onDecodeMismatch()
    {
        stats_->decodeMismatches += 1;
        stats_->faultsDetected += 1;
    }
    void
    onCorruptedDelivery()
    {
        stats_->corruptedEscapes += 1;
    }
    void
    onDupSuppressed()
    {
        stats_->dupSuppressed += 1;
    }

    /** Every injected fault, in injection order (capped; counters
     *  stay exact past the cap). */
    const std::vector<FaultEvent> &log() const { return log_; }

    /** Capture / restore dynamic state (checkpointing): clock, the
     *  one-shot and hard-fault queues and the log. Draws are pure
     *  functions of (seed, event identity), so no RNG cursor exists —
     *  params come from the construction config (fingerprinted). */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** Uniform double in [0, 1) keyed by the event identity. */
    double eventUniform(FaultKind kind, NodeId router, int port,
                        std::uint64_t salt) const;

    /** True + consumes a matching one-shot, if one is due. */
    bool takeOneShot(FaultKind kind, NodeId router, int port,
                     std::uint64_t *flip_mask);

    void record(FaultKind kind, NodeId router, int port,
                std::uint64_t flip_mask);

    using Link = std::pair<NodeId, int>; ///< (router, East/South port)

    /** Hash-draw and queue the permanent kills (@p wave < 0) or churn
     *  wave @p wave's kill+heal pairs: distinct routers outside
     *  @p dead (marked there), then distinct canonical links between
     *  the survivors that are not in @p exclude. @return the links. */
    std::vector<Link> planKills(const Mesh &mesh, int wave,
                                std::vector<std::uint8_t> &dead,
                                const std::vector<Link> &exclude);

    static constexpr std::size_t kLogCap = 4096;

    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    FaultParams params_;
    std::uint64_t seedMix_; ///< pre-mixed seed for event hashing
    Cycle now_ = 0;
    int routers_ = 0; ///< mesh size planHardFaults() saw; a load
                      ///< rejects a queued fault naming another router

    struct OneShot
    {
        FaultKind kind;
        Cycle cycle;
        NodeId router;
        int port;
        std::uint64_t flipMask;
        bool fired = false;
    };
    std::vector<OneShot> oneShots_;
    std::vector<HardFault> hardFaults_; ///< queued fail-stop faults

    FaultStats ownStats_; ///< used until bindStats() rebinds
    FaultStats *stats_ = &ownStats_;
    TraceRecorder *tracer_ = nullptr;
    std::vector<FaultEvent> log_;
};

} // namespace nox

#endif // NOX_NOC_FAULT_INJECTOR_HPP
