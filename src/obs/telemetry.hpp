/**
 * @file
 * Live run telemetry: a periodic heartbeat for long runs.
 *
 * Multi-hour soaks and big sweeps used to print nothing until they
 * finished. With telemetry enabled the Network emits one JSONL record
 * every `telemetry_interval` cycles — instantaneous and cumulative
 * simulated cycles/s, ETA against a target cycle count, active-set
 * sizes, in-flight packet count, fault and retry counters, peak RSS
 * and the age of the last checkpoint — and optionally mirrors a
 * compact one-line rendering to stderr
 * (`--progress`). nettest reuses the same line formatter for its
 * per-phase summaries.
 *
 * Like every observer, telemetry is nullptr-when-off on the Network
 * and strictly read-only with respect to simulation state: it reads
 * committed counters and the wall clock, and writes only to its own
 * file/stderr, so enabling it cannot perturb a run (enforced by the
 * observer-effect test). Wall-clock state is inherently per-process,
 * so telemetry is neither checkpointed nor part of the construction
 * fingerprint — a resumed run may freely toggle it.
 */

#ifndef NOX_OBS_TELEMETRY_HPP
#define NOX_OBS_TELEMETRY_HPP

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>

#include "noc/types.hpp"

namespace nox {

/** Telemetry configuration (see obsParamsFromConfig for the keys). */
struct TelemetryParams
{
    bool enabled = false;
    Cycle interval = 50000; ///< cycles between heartbeats
    std::string jsonlPath;  ///< JSONL export path ("" = no file)
    bool progress = false;  ///< mirror a one-line beat to stderr
};

/** Simulation-state inputs for one heartbeat (gathered by the
 *  Network; everything here is a read of committed state). */
struct TelemetrySample
{
    Cycle cycle = 0;
    int activeRouters = 0;
    int activeNics = 0;
    std::uint64_t packetsInFlight = 0;
    std::uint64_t packetsInjected = 0;
    std::uint64_t packetsEjected = 0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t e2eRetransmits = 0;
    std::uint64_t dupSuppressed = 0;
    std::uint64_t healsApplied = 0; ///< link + router heals
    std::uint64_t deadEntities = 0; ///< dead routers + explicit links
    std::int64_t checkpointAge = -1; ///< cycles; -1 = no checkpoint
    std::int64_t digestStrides = -1; ///< ledger strides (-1 = off)
    std::int64_t lastDigestCycle = -1; ///< newest stride's cycle
};

/** One emitted heartbeat: the sample plus host-side derivations. */
struct TelemetryRecord
{
    TelemetrySample sample;
    double wallSeconds = 0.0;
    double instCyclesPerSec = 0.0; ///< since the previous beat
    double cumCyclesPerSec = 0.0;  ///< since construction
    double etaSeconds = -1.0;      ///< -1 = no target / already past
    std::int64_t peakRssKb = 0;    ///< 0 where unreadable
};

/** Emits heartbeats; owned by the Network, driven from step(). */
class RunTelemetry
{
  public:
    explicit RunTelemetry(const TelemetryParams &params);

    const TelemetryParams &params() const { return params_; }

    /** True when the step ending at @p now should beat. */
    bool
    due(Cycle now) const
    {
        return now != 0 && now % params_.interval == 0;
    }

    /** Cycle count the ETA is computed against (0 = unknown; the
     *  runner sets warmup+measure, so the ETA covers the timed run
     *  up to the drain). */
    void setTargetCycles(Cycle target) { targetCycles_ = target; }
    Cycle targetCycles() const { return targetCycles_; }

    /** Called by the Network after every checkpoint write. */
    void
    noteCheckpoint(Cycle now)
    {
        lastCheckpointCycle_ = now;
        checkpointSeen_ = true;
    }

    /** Cycles since the last checkpoint (-1 = never checkpointed). */
    std::int64_t
    checkpointAge(Cycle now) const
    {
        if (!checkpointSeen_)
            return -1;
        return static_cast<std::int64_t>(now - lastCheckpointCycle_);
    }

    /** Emit one heartbeat: derive rates/ETA/RSS, append the JSONL
     *  record (when a path is configured) and the stderr line (when
     *  progress is on). */
    void beat(const TelemetrySample &sample);

    std::size_t beats() const { return beats_; }
    const TelemetryRecord &lastRecord() const { return last_; }

    /** Compact single-line rendering of a heartbeat — shared by the
     *  --progress stderr stream and nettest's per-phase summaries. */
    static std::string formatLine(const TelemetryRecord &rec,
                                  Cycle target_cycles);

    /** Peak resident set size of this process in KiB (0 where the
     *  platform offers no getrusage). */
    static std::int64_t peakRssKb();

  private:
    TelemetryParams params_;
    std::chrono::steady_clock::time_point start_;
    Cycle targetCycles_ = 0;
    Cycle lastCheckpointCycle_ = 0;
    bool checkpointSeen_ = false;
    Cycle lastBeatCycle_ = 0;
    double lastBeatWall_ = 0.0;
    std::size_t beats_ = 0;
    TelemetryRecord last_;
    std::ofstream out_;
};

} // namespace nox

#endif // NOX_OBS_TELEMETRY_HPP
