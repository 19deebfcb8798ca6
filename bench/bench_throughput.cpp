/**
 * @file
 * Simulator-throughput macrobenchmark (host performance, not NoC
 * performance): how many simulated cycles/second and flit-hops/second
 * the engine sustains per architecture and traffic pattern, with all
 * observers off. This is the number the data-oriented hot path is
 * optimised for, and the one the CI regression gate watches
 * (scripts/check_perf_regression.py against
 * bench/baselines/BENCH_throughput.json).
 *
 * Methodology matches bench_obs_overhead: one untimed warm-up pass
 * over every configuration (first-run page faults and heap growth
 * are one-time process costs, not steady-state costs), then timed
 * reps interleaved round-robin across configurations so slow machine
 * phases spread evenly instead of landing on whole rows; reported as
 * min/mean/stddev.
 *
 * Usage: bench_throughput [key=value...]
 *   archs=nonspec,specfast,specaccurate,nox patterns=uniform,transpose
 *   rate_mbps=1200 warmup=N measure=N seed=N repeats=3
 *   profile=true       (time with the self-profiler on and export the
 *                       per-phase breakdown; not the baseline config)
 *   perf_json=<path>   (PerfRecord JSON; the checked-in baseline is
 *                       bench/baselines/BENCH_throughput.json)
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader(
        "Simulator throughput: cycles/s and flit-hops/s by "
        "architecture and pattern (observers off)",
        config);

    const double rate = config.getDouble("rate_mbps", 1200.0);
    const int repeats = config.getInt("repeats", 3, 1);
    // profile=true times the run *with* the self-profiler enabled and
    // exports the per-phase breakdown in the perf JSON. Off by
    // default: the checked-in baseline is an observers-off number.
    const bool profile = config.getBool("profile", false);
    const std::vector<RouterArch> archs = bench::archsFrom(config);
    // Default to a bounded pattern pair (the full eight make this a
    // multi-minute run); `patterns=` overrides.
    std::vector<PatternKind> patterns;
    if (config.getStringList("patterns").empty()) {
        patterns = {PatternKind::UniformRandom, PatternKind::Transpose};
    } else {
        patterns = bench::patternsFrom(config);
    }

    struct Point
    {
        RouterArch arch;
        PatternKind pattern;
        SyntheticConfig config;
    };
    std::vector<Point> points;
    for (const RouterArch arch : archs) {
        for (const PatternKind pattern : patterns) {
            SyntheticConfig c;
            c.arch = arch;
            c.pattern = pattern;
            c.injectionMBps = rate;
            bench::applyCommon(config, &c);
            c.net.obs.profile.enabled = profile;
            points.push_back({arch, pattern, c});
        }
    }

    for (const Point &pt : points)
        (void)runSynthetic(pt.config); // untimed warm-up pass
    std::vector<std::vector<double>> walls(points.size());
    std::vector<std::uint64_t> cycles(points.size(), 0);
    std::vector<std::uint64_t> hops(points.size(), 0);
    std::vector<RunResult> results(points.size());
    for (int i = 0; i < repeats; ++i) {
        // Rotate the starting point each round so no configuration is
        // pinned to a fixed position relative to machine-speed phases
        // (see bench_obs_overhead for the full rationale).
        for (std::size_t j = 0; j < points.size(); ++j) {
            const std::size_t k =
                (j + static_cast<std::size_t>(i)) % points.size();
            const RunResult r = runSynthetic(points[k].config);
            walls[k].push_back(r.wallSeconds);
            cycles[k] = r.cyclesSimulated;
            hops[k] = r.flitHops;
            results[k] = r;
        }
    }

    Table t({"arch", "pattern", "wall_min_s", "wall_mean_s",
             "wall_sd_s", "cycles/s", "flit-hops/s"});
    std::vector<bench::PerfRecord> perf;
    for (std::size_t k = 0; k < points.size(); ++k) {
        const Point &pt = points[k];
        bench::PerfRecord rec;
        rec.label = std::string(archName(pt.arch)) + "/" +
                    patternName(pt.pattern);
        rec.cycles = cycles[k];
        rec.flitHops = hops[k];
        bench::finishRecordStats(&rec, walls[k]);
        bench::recordProfile(&rec, results[k]);

        const double cps =
            rec.wallSeconds > 0.0
                ? static_cast<double>(cycles[k]) / rec.wallSeconds
                : 0.0;
        const double hps =
            rec.wallSeconds > 0.0
                ? static_cast<double>(hops[k]) / rec.wallSeconds
                : 0.0;
        t.addRow({archName(pt.arch), patternName(pt.pattern),
                  Table::num(rec.wallSeconds, 4),
                  Table::num(rec.meanWallSeconds, 4),
                  Table::num(rec.stddevWallSeconds, 4),
                  Table::num(cps, 0), Table::num(hps, 0)});
        perf.push_back(std::move(rec));
    }
    t.print(std::cout);
    bench::writeCsv(config, "throughput", t);
    bench::writePerfJson(config, "throughput", perf);
    bench::warnUnused(config);
    return 0;
}
