/**
 * @file
 * High-level experiment runners.
 *
 * runSynthetic() performs one point of a latency-vs-load sweep
 * (Figures 8/9): build a mesh of the chosen router architecture,
 * offer load at a given MB/s/node (converted to flits/cycle using the
 * architecture's clock period from the timing model), warm up,
 * measure, drain, and report latency / throughput / energy / ED^2.
 *
 * runApplication() replays a packet trace (Figure 10/11): the same
 * nanosecond-domain trace drives each architecture at its own clock,
 * on two physical networks (request + reply) as in §5.2, each through
 * replayTrace().
 */

#ifndef NOX_CORE_SIM_RUNNER_HPP
#define NOX_CORE_SIM_RUNNER_HPP

#include <array>
#include <cstdint>

#include "noc/network.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "noc/router.hpp"
#include "noc/types.hpp"
#include "power/energy_model.hpp"
#include "power/timing_model.hpp"
#include "traffic/patterns.hpp"
#include "traffic/trace.hpp"

namespace nox {

/** Configuration for one synthetic-traffic measurement point. */
struct SyntheticConfig
{
    RouterArch arch = RouterArch::Nox;
    PatternKind pattern = PatternKind::UniformRandom;
    double injectionMBps = 500.0; ///< offered load per node
    bool selfSimilar = false;     ///< Pareto ON/OFF instead of
                                  ///< Bernoulli
    int packetFlits = 1;          ///< paper synthetic: single-flit
    /** The network: mesh, router, scheduling kernel, faults,
     *  observers and the deliberate-divergence knob
     *  (debugPerturbCycle/debugPerturbRouter, test/debug only). */
    NetworkParams net;
    Cycle warmupCycles = 10000;
    Cycle measureCycles = 30000;
    Cycle drainLimitCycles = 150000;
    std::uint64_t seed = 0xA11CE5;
    Technology tech = Technology::tsmc65();
    PhysicalParams phys;

    /** Periodic checkpointing: every this many cycles a crash-safe
     *  snapshot is written to checkpointFile (0 = off). */
    Cycle checkpointInterval = 0;
    std::string checkpointFile = "nox-checkpoint.snap";
    /** Snapshots retained (live file + rotated predecessors). */
    int checkpointKeep = 2;
    /** Resume from this snapshot instead of starting at cycle 0. The
     *  run's configuration must match the snapshot's (fingerprint
     *  checked); the resumed run completes with NetworkStats and
     *  provenance bit-identical to the uninterrupted run. */
    std::string resumePath;
};

/** Result of one measurement point. */
struct RunResult
{
    RouterArch arch = RouterArch::Nox;
    double periodNs = 0.0;

    double offeredMBps = 0.0;
    double offeredFlitsPerCycle = 0.0;
    double acceptedMBps = 0.0;
    double acceptedFlitsPerCycle = 0.0;

    std::uint64_t packetsMeasured = 0;
    double avgLatencyCycles = 0.0;
    double avgLatencyNs = 0.0;
    double p50LatencyNs = 0.0;
    double p95LatencyNs = 0.0;
    double p99LatencyNs = 0.0;

    /** Latency-histogram coverage diagnostics: samples past the upper
     *  bound (should be 0 — auto-widening absorbs them) and how many
     *  times the bucket width doubled to keep them in range. */
    std::uint64_t latencyHistOverflow = 0;
    std::uint32_t latencyHistWidenings = 0;

    /** Rendered link-utilization heatmap ("" when metrics are off). */
    std::string metricsHeatmap;

    /** Latency-provenance attribution over the measured packets
     *  (provenance= runs only; see obs/provenance.hpp). */
    bool provenance = false;
    LatencyBreakdown breakdown;
    std::array<LatencyBreakdown, 3> breakdownByClass;
    /** Packets whose components failed to sum to their latency
     *  (must be 0 — a nonzero count is a simulator bug). */
    std::uint64_t provenanceViolations = 0;

    bool saturated = false;
    bool drained = true;
    std::string drainDiagnosis; ///< non-empty when drain timed out
    std::size_t maxSourceQueueFlits = 0;

    /** Fault-injection counters over the whole run (all zero when
     *  injection is disabled). */
    FaultStats faults;

    // Simulator (host) performance over warmup+measure+drain; the
    // activity-driven kernel is evaluated on cyclesPerSecond().
    double wallSeconds = 0.0;
    std::uint64_t cyclesSimulated = 0;
    /** Flit-hops (mesh-link + NIC-link flit traversals) over the
     *  measurement window — the work-done numerator for the
     *  throughput bench's flit-hops/s figure. */
    std::uint64_t flitHops = 0;
    double
    cyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(cyclesSimulated) / wallSeconds
                   : 0.0;
    }

    /** Self-profiling phase breakdown (profile= runs only; see
     *  obs/profiler.hpp). Seconds of host wall time per SimPhase,
     *  total stepped time, and the scoped-coverage fraction. */
    bool profiled = false;
    std::array<double, kNumSimPhases> phaseSeconds{};
    std::array<std::uint64_t, kNumSimPhases> phaseEnters{};
    double profiledTotalSeconds = 0.0;
    double profileCoverage = 0.0;
    /** Load-imbalance index (max shard / mean shard) over row-stripe
     *  partitions, by router evaluations and by flits moved. */
    double imbalanceEvals = 0.0;
    double imbalanceFlits = 0.0;

    /** State-digest ledger summary (digest= runs only; -1 = off). */
    std::int64_t digestStrides = -1;
    std::int64_t lastDigestCycle = -1;

    EnergyBreakdown energy;      ///< over the measurement window
    double powerW = 0.0;         ///< mean power over the window
    double energyPerPacketPj = 0.0;
    double ed2 = 0.0;            ///< pJ * ns^2 (paper's ED^2 metric)

    // Raw microarchitectural activity over the window.
    std::uint64_t abortCycles = 0;   ///< NoX multi-flit aborts
    std::uint64_t misspecCycles = 0; ///< speculative collisions
    std::uint64_t wastedLinkCycles = 0;
};

/** Run one synthetic measurement point. */
RunResult runSynthetic(const SyntheticConfig &config);

class Config;

/**
 * Parse the synthetic-run keys (README.md, "Run parameters") — one
 * parser for every front end (noxsim, trace_tool bisect, perfbench),
 * so a bisection re-run accepts exactly the keys of the run it
 * reproduces; the network keys go through networkParamsFromConfig().
 * Fatal, naming the key, on a value out of range or a broken
 * cross-key rule: every pattern but uniform and hotspot needs
 * concentration=1, transpose a square mesh, bitcomp, bitrev and
 * shuffle a power-of-two node count, selfsimilar a positive rate,
 * and warmup + measure + drain_limit must fit a cycle count. Does not
 * call requireAllUsed: callers own their leftover-key policy.
 */
SyntheticConfig parseSyntheticConfig(const Config &config);

/**
 * A constructed-but-not-yet-run synthetic network: the Network plus
 * the destination pattern its sources reference (member order makes
 * the net destruct first). Shared by runSynthetic and the trace_tool
 * bisector so a re-run reproduces the exact construction.
 */
struct SyntheticNet
{
    std::unique_ptr<DestinationPattern> pattern;
    std::unique_ptr<Network> net; ///< destroyed before pattern
};

/** Build network + per-node sources + measurement window for one
 *  synthetic point. Fatal, naming rate_mbps and the limit, when the
 *  sources cannot offer the load: more than packet_flits flits per
 *  node per cycle, or that many with selfsimilar (runSynthetic calls
 *  a load of a flit a cycle or more saturated before building). */
SyntheticNet buildSyntheticNetwork(const SyntheticConfig &config);

/** Runner-level fingerprint (pattern/rate/window/seed) guarding
 *  resume: embedded in checkpoints next to the Network fingerprint. */
std::string syntheticRunnerFingerprint(const SyntheticConfig &config);

/** Configuration for an application-trace replay. */
struct AppConfig
{
    RouterArch arch = RouterArch::Nox;
    int width = 8;
    int height = 8;
    int bufferDepth = 4;
    int sinkBufferDepth = 4;
    Cycle drainLimitCycles = 4000000;
    Technology tech = Technology::tsmc65();
    PhysicalParams phys;
};

/** Result of replaying one application trace. */
struct AppResult
{
    RouterArch arch = RouterArch::Nox;
    double periodNs = 0.0;

    std::uint64_t packets = 0;
    /** Network latency (head injection -> delivery), the paper's
     *  figure-10 metric for open-loop trace replay. */
    double avgLatencyCycles = 0.0;
    double avgLatencyNs = 0.0;
    /** Total latency including source queueing (diagnostic). */
    double avgTotalLatencyNs = 0.0;
    double avgLatencyNsRequest = 0.0;
    double avgLatencyNsReply = 0.0;
    /** Total latency of the request and of the reply network. */
    double avgTotalLatencyNsRequest = 0.0;
    double avgTotalLatencyNsReply = 0.0;

    bool drained = true;
    EnergyBreakdown energy; ///< both physical networks, full run
    double powerW = 0.0;
    double energyPerPacketPj = 0.0;
    double ed2 = 0.0;
};

/** Replay @p trace through request+reply networks of @p config.
 *  Fatal, naming the record, when an endpoint is not a mesh node or
 *  the injection cycle at the architecture's clock is 2^64 or more. */
AppResult runApplication(const AppConfig &config, const Trace &trace);

/** One network's replay: its statistics and energy events over the
 *  whole run, the cycles it ran and whether it drained. */
struct ReplayOutcome
{
    NetworkStats stats;
    EnergyEvents events;
    Cycle cycles = 0;
    bool drained = true;
};

/** Replay time-sorted @p records through one @p arch network built
 *  from @p params and clocked at @p period_ns (always-tick). Stops
 *  when every record is injected and every packet delivered, or
 *  after @p cycle_limit cycles (then drained is false). */
ReplayOutcome replayTrace(const NetworkParams &params, RouterArch arch,
                          std::vector<TraceRecord> records,
                          double period_ns, Cycle cycle_limit);

/** MB/s/node -> flits/node/cycle at a clock period [ns] with 8-byte
 *  flits (Table 1). */
double mbpsToFlitsPerCycle(double mbps, double period_ns);

/** flits/node/cycle -> MB/s/node. */
double flitsPerCycleToMbps(double flits_per_cycle, double period_ns);

} // namespace nox

#endif // NOX_CORE_SIM_RUNNER_HPP
