/**
 * @file
 * Simulator self-profiling: phase-scoped wall-clock timers plus
 * per-router work accounting.
 *
 * Where the observability subsystem answers "what did the *simulated
 * network* do", the profiler answers "where did the *host's* wall
 * clock go": every Network::step() is decomposed into a fixed
 * taxonomy of phases (traffic inject, link/retry, router evaluate,
 * NIC eject, scheduler bookkeeping, obs flush, checkpoint write) via
 * cheap monotonic-clock scopes, and every router accumulates a work
 * record (evaluations, flits moved, arbitration rounds) that
 * aggregates into a load-imbalance index over arbitrary spatial
 * partitions — the data a sharded parallel kernel will partition on.
 *
 * Guard pattern: like the tracer and provenance hooks the profiler is
 * a nullptr-when-off unique_ptr on the Network; ProfScope no-ops on a
 * null profiler, so the off path costs one branch per scope and the
 * simulation outcome is bit-identical either way (the profiler only
 * ever *reads* the clock — it never touches router, NIC, RNG or stats
 * state). Enforced by the observer-effect test.
 *
 * Coverage contract: the per-phase times are a decomposition of the
 * step timer, not an exact partition — loop control and the scope
 * bookkeeping itself run between scopes. The gap (2 uncounted clock
 * reads per scope plus unscoped glue) is bounded well under 5% of the
 * step total on any machine fast enough to run the simulator;
 * coverage() reports the realized fraction and trace_tool/CI check
 * it.
 */

#ifndef NOX_OBS_PROFILER_HPP
#define NOX_OBS_PROFILER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "noc/types.hpp"

namespace nox {

/**
 * The fixed phase taxonomy of one simulated cycle's host cost.
 * Commit/retire loops and the fault/age sweeps count as Scheduler
 * ("scheduler bookkeeping"); tracer beginCycle, wake edges, metrics
 * window closes and telemetry beats count as ObsFlush.
 */
enum class SimPhase : std::uint8_t {
    TrafficInject = 0, ///< source ticks + NIC injection
    LinkRetry,         ///< link-layer retransmit/watchdog maintenance
    RouterEvaluate,    ///< router evaluation proper
    NicEject,          ///< NIC sink drain + eject decode
    Scheduler,         ///< fault clock, commit/retire, active-set work
    ObsFlush,          ///< tracer/metrics/telemetry in-loop work
    Checkpoint,        ///< checkpoint hook invocation
};

inline constexpr std::size_t kNumSimPhases = 7;

/** Stable lowercase name ("traffic_inject", ...). */
const char *simPhaseName(SimPhase phase);

/** Profiler configuration (see obsParamsFromConfig for the keys). */
struct ProfilerParams
{
    bool enabled = false;
    std::string jsonlPath; ///< profile JSONL export ("" = no export)
};

/** Accumulated cost of one phase. */
struct PhaseTotals
{
    std::uint64_t ns = 0;     ///< wall nanoseconds inside the phase
    std::uint64_t enters = 0; ///< scope entries
};

/** One router's work record (the shard-partitioning currency). */
struct RouterWork
{
    std::uint64_t evaluations = 0; ///< evaluate() calls (live count)
    std::uint64_t flitsMoved = 0;  ///< mesh + NIC link flits (derived)
    std::uint64_t arbRounds = 0;   ///< arbiter decisions (derived)
};

/** Header metadata for the profile JSONL export. */
struct ProfileMeta
{
    int width = 0;
    int height = 0;
    std::string arch;
    std::string sched;
};

/** A profile export: what PhaseProfiler::writeJsonl writes and
 *  loadProfile() reads back, one layout per line kind. */
struct ProfileFile
{
    /** One phase's line. */
    struct Phase
    {
        std::string name;
        PhaseTotals totals;
    };
    /** One router's line. */
    struct Router
    {
        std::uint64_t id = 0;
        RouterWork work;
    };
    /** A load-imbalance line (a default row-stripe partition). */
    struct Imbalance
    {
        std::string by; ///< "evals" or "flits"
        int shards = 0;
        double index = 0.0;
    };

    std::uint64_t steps = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t phaseNsSum = 0; ///< a load checks it against phases
    double coverage = 0.0;
    ProfileMeta meta;
    std::uint64_t routerCount = 0; ///< a load checks it against routers
    std::vector<Phase> phases;
    std::vector<Router> routers;
    std::vector<Imbalance> imbalances;
};

/** Parse a profile export. @return false with @p error naming
 *  `path:line` and the key on an unreadable or malformed file. */
bool loadProfile(const std::string &path, ProfileFile &out,
                 std::string &error);

/**
 * Load-imbalance index of a work distribution over a partition:
 * max-shard load divided by mean-shard load. 1.0 is perfectly
 * balanced, k is the worst case (all work on one of k shards); an
 * index of x means the slowest shard of a parallel step would run x
 * times longer than the average. A zero-work distribution is balanced
 * by convention (returns 1.0).
 *
 * @p shardOf maps each router to its shard in [0, numShards).
 */
double loadImbalance(const std::vector<std::uint64_t> &work,
                     const std::vector<int> &shardOf, int numShards);

/** Contiguous row-stripe partition of a width x height mesh into
 *  @p numShards shards (the natural mesh sharding: boundary links
 *  only between adjacent stripes). */
std::vector<int> rowStripePartition(int width, int height,
                                    int numShards);

/**
 * Phase-scoped wall-clock profiler for the Network cycle loop.
 *
 * Usage: beginStep()/endStep() bracket one step(); inside, each
 * phase is timed with a ProfScope. Phases must not nest — a second
 * enterPhase() while one is open is a simulator bug and panics.
 */
class PhaseProfiler
{
  public:
    PhaseProfiler(const ProfilerParams &params, int num_routers);

    const ProfilerParams &params() const { return params_; }

    // -- cycle scoping (hot path) --

    void
    beginStep()
    {
        NOX_ASSERT(stepStart_ == 0, "step timer already running");
        stepStart_ = nowNs();
    }

    void
    endStep()
    {
        NOX_ASSERT(stepStart_ != 0, "step timer not running");
        NOX_ASSERT(open_ == kNoPhase,
                   "phase left open across a step boundary");
        totalNs_ += nowNs() - stepStart_;
        stepStart_ = 0;
        ++steps_;
    }

    void
    enterPhase(SimPhase phase)
    {
        NOX_ASSERT(open_ == kNoPhase, "phase scopes must not nest (",
                   simPhaseName(phase), " inside ",
                   open_ == kNoPhase
                       ? "?"
                       : simPhaseName(static_cast<SimPhase>(open_)),
                   ")");
        open_ = static_cast<std::uint8_t>(phase);
        openStart_ = nowNs();
    }

    void
    leavePhase(SimPhase phase)
    {
        NOX_ASSERT(open_ == static_cast<std::uint8_t>(phase),
                   "leaving phase ", simPhaseName(phase),
                   " that is not open");
        PhaseTotals &t = phases_[static_cast<std::size_t>(phase)];
        t.ns += nowNs() - openStart_;
        t.enters += 1;
        open_ = kNoPhase;
    }

    // -- per-router work (hot path, profiler-on only) --

    void
    countEval(NodeId router)
    {
        evals_[static_cast<std::size_t>(router)] += 1;
    }

    // -- reporting --

    std::uint64_t steps() const { return steps_; }
    std::uint64_t totalNs() const { return totalNs_; }

    const PhaseTotals &
    phase(SimPhase p) const
    {
        return phases_[static_cast<std::size_t>(p)];
    }

    /** Sum of all per-phase nanoseconds. */
    std::uint64_t phaseNsSum() const;

    /** phaseNsSum() / totalNs() — the fraction of the step timer the
     *  phase scopes account for (1.0 when no step was timed). */
    double coverage() const;

    int numRouters() const
    {
        return static_cast<int>(evals_.size());
    }

    std::uint64_t
    evaluations(NodeId router) const
    {
        return evals_[static_cast<std::size_t>(router)];
    }

    /**
     * Report-time injection of the derived work counters (flits
     * moved, arbitration rounds) from the router's own monotonic
     * energy-event counters — the hot path pays nothing for them.
     */
    void recordRouterWork(NodeId router, std::uint64_t flits_moved,
                          std::uint64_t arb_rounds);

    /** Assembled work record (evaluations live, the rest as last
     *  recorded via recordRouterWork). */
    RouterWork routerWork(NodeId router) const;

    /** Per-router evaluation counts (imbalance computations). */
    const std::vector<std::uint64_t> &
    evaluationCounts() const
    {
        return evals_;
    }

    /** The profile as exported: a header, every phase, every router,
     *  and the imbalance of a default 4-way row-stripe partition. */
    ProfileFile report(const ProfileMeta &meta) const;

    /** Write report(@p meta) as JSONL, one line per header, phase,
     *  router and imbalance entry. @return false on I/O error. */
    bool writeJsonl(const std::string &path,
                    const ProfileMeta &meta) const;

  private:
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    static constexpr std::uint8_t kNoPhase = 0xFF;

    ProfilerParams params_;
    PhaseTotals phases_[kNumSimPhases];
    std::vector<std::uint64_t> evals_;
    std::vector<std::uint64_t> flitsMoved_;
    std::vector<std::uint64_t> arbRounds_;
    std::uint64_t totalNs_ = 0;
    std::uint64_t steps_ = 0;
    std::uint64_t stepStart_ = 0;
    std::uint64_t openStart_ = 0;
    std::uint8_t open_ = kNoPhase;
};

/** RAII phase scope; no-ops on a null profiler (the off path). */
class ProfScope
{
  public:
    ProfScope(PhaseProfiler *prof, SimPhase phase)
        : prof_(prof), phase_(phase)
    {
        if (prof_)
            prof_->enterPhase(phase_);
    }

    ~ProfScope()
    {
        if (prof_)
            prof_->leavePhase(phase_);
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    PhaseProfiler *prof_;
    SimPhase phase_;
};

} // namespace nox

#endif // NOX_OBS_PROFILER_HPP
