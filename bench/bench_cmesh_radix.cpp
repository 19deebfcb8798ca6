/**
 * @file
 * §8 future work: the NoX on higher-radix topologies.
 *
 * "In future work, we look to evaluate the NoX architecture on
 * alternative, higher radix, topologies [1] which may derive more
 * benefit given their higher arbitration latencies, their longer
 * channels, and the fixed cost of the NoX decoding hardware."
 *
 * This bench compares 64 terminals organized as the paper's 8x8 mesh
 * (radix-5 routers, 2 mm channels) against a 4x4 concentrated mesh
 * with 4 terminals per radix-8 router (4 mm channels, same die), at
 * matched per-terminal load. Reported: per-architecture clock
 * periods (the NoX clock penalty vs Spec-Accurate shrinks as the
 * arbiter and channel grow while decode stays ~40 ps), latencies,
 * and the NoX-vs-best-rival gap on both topologies.
 */

#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "power/timing_model.hpp"

namespace nox {
namespace {

SyntheticConfig
configFor(bool cmesh, RouterArch arch, double mbps,
          const Config &config)
{
    SyntheticConfig c;
    c.arch = arch;
    c.pattern = PatternKind::UniformRandom;
    c.injectionMBps = mbps;
    if (cmesh) {
        c.net.width = 4;
        c.net.height = 4;
        c.net.concentration = 4;
    }
    bench::applyCommon(config, &c);
    if (cmesh) { // applyCommon may override width/height from CLI
        c.net.width = 4;
        c.net.height = 4;
    }
    return c;
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
        "§8 future work: NoX on a higher-radix concentrated mesh",
        config);

    // Clock periods on both physical configurations.
    const Technology tech = Technology::tsmc65();
    PhysicalParams mesh_phys;
    PhysicalParams cmesh_phys;
    cmesh_phys.ports = meshRadix(4);
    cmesh_phys.linkLengthMm = 4.0;
    const TimingModel mesh_tm(tech, mesh_phys);
    const TimingModel cmesh_tm(tech, cmesh_phys);

    Table periods({"Architecture", "8x8 mesh (radix 5)",
                   "4x4 CMesh-4 (radix 8)", "NoX penalty"});
    for (RouterArch arch : kAllArchs) {
        periods.addRow(
            {archName(arch),
             Table::num(mesh_tm.clockPeriodNs(arch), 3) + " ns",
             Table::num(cmesh_tm.clockPeriodNs(arch), 3) + " ns",
             ""});
    }
    periods.addRow(
        {"NoX vs Spec-Accurate",
         Table::num((mesh_tm.clockPeriodNs(RouterArch::Nox) /
                         mesh_tm.clockPeriodNs(
                             RouterArch::SpecAccurate) -
                     1.0) *
                        100.0,
                    1) + " %",
         Table::num((cmesh_tm.clockPeriodNs(RouterArch::Nox) /
                         cmesh_tm.clockPeriodNs(
                             RouterArch::SpecAccurate) -
                     1.0) *
                        100.0,
                    1) + " %",
         "fixed ~40 ps decode"});
    periods.print(std::cout);
    std::cout << '\n';

    const std::vector<double> loads =
        config.has("rates")
            ? config.getDoubleList("rates")
            : std::vector<double>{300, 500, 800, 1100, 1400, 1800};

    for (bool cmesh : {false, true}) {
        std::cout << "--- "
                  << (cmesh ? "4x4 CMesh-4 (64 terminals, radix 8)"
                            : "8x8 mesh (64 terminals, radix 5)")
                  << ", uniform latency [ns] ---\n";
        Table t({"MB/s/node", "NonSpec", "Spec-Fast",
                 "Spec-Accurate", "NoX", "NoX vs best rival"});
        for (double mbps : loads) {
            std::vector<std::string> row{Table::num(mbps, 0)};
            std::map<RouterArch, RunResult> results;
            double best_rival = 1e300;
            for (RouterArch arch : kAllArchs) {
                results[arch] =
                    runSynthetic(configFor(cmesh, arch, mbps, config));
                const RunResult &r = results[arch];
                row.push_back(r.saturated
                                  ? "sat"
                                  : Table::num(r.avgLatencyNs, 2));
                if (arch != RouterArch::Nox && !r.saturated)
                    best_rival =
                        std::min(best_rival, r.avgLatencyNs);
            }
            const RunResult &noxr = results[RouterArch::Nox];
            if (!noxr.saturated && best_rival < 1e300) {
                row.push_back(Table::num(
                    (noxr.avgLatencyNs / best_rival - 1.0) * 100.0,
                    1) + " %");
            } else {
                row.push_back("-");
            }
            t.addRow(std::move(row));
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "(a shrinking/negative 'NoX vs best rival' column on "
                 "the CMesh confirms §8's hypothesis)\n";

    bench::warnUnused(config);
    return 0;
}
