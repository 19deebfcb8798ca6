/**
 * @file
 * Figure 8 — synthetic traffic latency.
 *
 * For every traffic pattern of §5.1 (seven deterministic/random
 * single-flit patterns plus the self-similar Pareto source), sweeps
 * offered load in MB/s/node and reports average packet latency in
 * nanoseconds for all four router architectures, exactly the axes of
 * the paper's Figure 8. After each pattern, the crossover points and
 * saturation throughputs are summarized; at the end the NoX
 * saturation-throughput gain (paper headline: up to 9.9%) is printed.
 *
 * Usage: bench_fig8_synthetic_latency [key=value...]
 *   patterns=uniform,transpose,...  quick=true  rates=...  seed=N
 *   breakdown=true   (adds per-(rate, arch) latency-attribution
 *                     tables from the provenance observer)
 */

#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace nox {
namespace {

struct PatternSummary
{
    std::map<RouterArch, double> saturationMBps;
};

PatternSummary
runPattern(PatternKind pattern, bool self_similar,
           const std::vector<RouterArch> &archs,
           const std::vector<double> &rates, const Config &config,
           std::vector<bench::PerfRecord> *perf)
{
    std::cout << "--- Figure 8: "
              << (self_similar ? "selfsimilar"
                               : patternName(pattern))
              << " traffic, average latency [ns] ---\n";

    std::vector<std::string> headers{"MB/s/node"};
    for (RouterArch a : archs)
        headers.push_back(archName(a));
    Table table(headers);

    // breakdown=true: run with latency provenance and append a
    // per-(rate, arch) attribution table (mean cycles per packet per
    // component — columns sum to the mean latency in cycles).
    const bool breakdown = config.getBool("breakdown", false);
    std::vector<std::string> bheaders{"MB/s/node", "arch"};
    for (std::size_t i = 0; i < kNumLatencyComponents; ++i)
        bheaders.push_back(
            latencyComponentName(static_cast<LatencyComponent>(i)));
    bheaders.push_back("total");
    Table btable(bheaders);

    PatternSummary summary;
    std::map<RouterArch, RunResult> last_ok;

    for (double rate : rates) {
        std::vector<std::string> row{Table::num(rate, 0)};
        for (RouterArch arch : archs) {
            SyntheticConfig c;
            c.arch = arch;
            c.pattern = pattern;
            c.selfSimilar = self_similar;
            c.injectionMBps = rate;
            bench::applyCommon(config, &c);
            c.net.obs.prov.enabled = breakdown;
            const RunResult r = runSynthetic(c);
            if (breakdown && !r.saturated &&
                r.breakdown.packets > 0) {
                const auto pkts =
                    static_cast<double>(r.breakdown.packets);
                std::vector<std::string> brow{Table::num(rate, 0),
                                              archName(arch)};
                for (std::size_t i = 0; i < kNumLatencyComponents;
                     ++i) {
                    brow.push_back(Table::num(
                        static_cast<double>(r.breakdown.comp[i]) /
                            pkts,
                        2));
                }
                brow.push_back(Table::num(
                    static_cast<double>(r.breakdown.totalCycles) /
                        pkts,
                    2));
                btable.addRow(std::move(brow));
            }
            perf->push_back(
                {std::string(self_similar ? "selfsimilar"
                                          : patternName(pattern)) +
                     "/" + archName(arch) + "/" +
                     Table::num(rate, 0),
                 r.wallSeconds, r.cyclesSimulated});
            if (r.saturated) {
                row.push_back("sat");
                if (!summary.saturationMBps.count(arch))
                    summary.saturationMBps[arch] = rate;
            } else {
                row.push_back(Table::num(r.avgLatencyNs, 2));
                last_ok[arch] = r;
            }
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    bench::writeCsv(config, std::string("fig8_") +
                                (self_similar ? "selfsimilar"
                                              : patternName(pattern)),
                    table);
    if (breakdown) {
        std::cout << "\nlatency attribution [mean cycles/packet] "
                     "(components sum to the mean latency):\n";
        btable.print(std::cout);
        bench::writeCsv(config,
                        std::string("fig8_") +
                            (self_similar ? "selfsimilar"
                                          : patternName(pattern)) +
                            "_breakdown",
                        btable);
    }

    std::cout << "saturation throughput [MB/s/node]: ";
    for (RouterArch a : archs) {
        const double sat = summary.saturationMBps.count(a)
                               ? summary.saturationMBps[a]
                               : rates.back();
        std::cout << archName(a) << "="
                  << Table::num(sat, 0)
                  << (summary.saturationMBps.count(a) ? "" : "+")
                  << "  ";
        summary.saturationMBps[a] = sat;
    }
    std::cout << "\n\n";
    return summary;
}

} // namespace
} // namespace nox

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader(
        "Figure 8: synthetic traffic latency vs injection bandwidth",
        config);

    const auto archs = bench::archsFrom(config);
    const auto rates = bench::ratesFrom(config);
    const auto patterns = bench::patternsFrom(config);

    double best_nox_gain = 0.0;
    const char *best_pattern = "";
    std::vector<bench::PerfRecord> perf;
    for (PatternKind p : patterns) {
        const auto s =
            runPattern(p, false, archs, rates, config, &perf);
        if (s.saturationMBps.count(RouterArch::Nox)) {
            double other = 0.0;
            for (const auto &[a, sat] : s.saturationMBps) {
                if (a != RouterArch::Nox)
                    other = std::max(other, sat);
            }
            if (other > 0.0) {
                const double gain =
                    s.saturationMBps.at(RouterArch::Nox) / other -
                    1.0;
                if (gain > best_nox_gain) {
                    best_nox_gain = gain;
                    best_pattern = patternName(p);
                }
            }
        }
    }
    // The paper's eighth pattern: self-similar Pareto traffic.
    runPattern(PatternKind::UniformRandom, true, archs, rates,
               config, &perf);

    std::cout << "NoX best saturation-throughput gain over the best "
                 "other architecture: "
              << Table::num(best_nox_gain * 100.0, 1) << "% ("
              << best_pattern << ")  [paper: up to 9.9%]\n";

    bench::writePerfJson(config, "fig8_synthetic_latency", perf);
    bench::warnUnused(config);
    return 0;
}
