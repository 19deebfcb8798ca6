/**
 * @file
 * Shared helpers for the figure/table benchmark harnesses.
 */

#ifndef NOX_BENCH_BENCH_UTIL_HPP
#define NOX_BENCH_BENCH_UTIL_HPP

#include <array>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/sim_runner.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace bench {

/** Default injection-rate sweep for the Figure 8/9 axes
 *  [MB/s/node], covering the paper's quoted crossovers (575, 750)
 *  and saturation region (~2775). */
std::vector<double> defaultRates(bool quick);

/** Parse `patterns=` config (default: all eight of §5.1). */
std::vector<PatternKind> patternsFrom(const Config &config);

/** Parse `archs=` config (default: all four). */
std::vector<RouterArch> archsFrom(const Config &config);

/** Parse `workloads=` config (default: the built-in ten). */
std::vector<std::string> workloadsFrom(const Config &config);

/** Apply warmup/measure/seed/scheduling overrides from config. */
void applyCommon(const Config &config, SyntheticConfig *synth);

/** One simulator-performance sample for writePerfJson(). */
struct PerfRecord
{
    std::string label;      ///< e.g. "NoX/uniform/activity"
    double wallSeconds = 0.0; ///< best (minimum) timed rep
    std::uint64_t cycles = 0;
    std::uint64_t flitHops = 0; ///< measurement-window flit-hops
    // Multi-rep statistics (reps == 0 means single-shot: only the
    // fields above are meaningful and the JSON omits the rest).
    int reps = 0;               ///< timed reps behind the statistics
    double meanWallSeconds = 0.0;
    double stddevWallSeconds = 0.0;
    // Self-profiling phase breakdown (profile= runs only; the JSON
    // gains a "phases" object when profiled is set).
    bool profiled = false;
    std::array<double, kNumSimPhases> phaseSeconds{};
    double profileCoverage = 0.0;
};

/** Accumulate best/mean/stddev over timed reps into @p record. */
void finishRecordStats(PerfRecord *record,
                       const std::vector<double> &wallSamples);

/** Copy a profiled run's phase breakdown into @p record. */
void recordProfile(PerfRecord *record, const RunResult &result);

/** Host identity for perf-baseline comparability: CPU model, core
 *  count, cpufreq governor ("unknown" where unreadable). The
 *  regression gate warns when a baseline was recorded on a
 *  different host. */
struct HostFingerprint
{
    std::string cpu = "unknown";
    int cores = 0;
    std::string governor = "unknown";
};

/** Read this host's fingerprint (/proc + sysfs; cached). */
const HostFingerprint &hostFingerprint();

/**
 * If `perf_json=<path>` is configured, write the simulator
 * performance records (wall-clock seconds, simulated cycles, and
 * derived cycles/second) as a JSON document at that path — the
 * artifact CI uploads from the bench-smoke step. A path that cannot
 * be written is fatal (exit 1): a gate must never read a stale file.
 */
void writePerfJson(const Config &config, const std::string &bench,
                   const std::vector<PerfRecord> &records);

/** Offered-rate sweep from config (`rates=` or quick/full default). */
std::vector<double> ratesFrom(const Config &config);

/** Emit a standard bench header with run parameters. */
void printHeader(const std::string &title, const Config &config);

/**
 * If `csv_dir=<path>` is configured, write @p table to
 * `<path>/<name>.csv` (directory must exist; an unwritable path is
 * fatal) for plot scripts (scripts/plot_figures.py consumes these).
 */
void writeCsv(const Config &config, const std::string &name,
              const Table &table);

/** Warn about config keys that were never consumed. */
void warnUnused(const Config &config);

} // namespace bench
} // namespace nox

#endif // NOX_BENCH_BENCH_UTIL_HPP
