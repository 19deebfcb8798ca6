/**
 * @file
 * Table 2 — router clock periods, with the §6.1 critical-path
 * breakdown (248 ps SRAM read, 98 ps 2 mm link, ~40 ps NoX decode
 * overhead) and the relative frequency improvements.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "power/timing_model.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader("Table 2: router clock periods", config);

    const Technology tech = Technology::tsmc65();
    PhysicalParams phys;
    phys.bufferDepth = config.getInt("buffer_depth", 4, 1, kMaxBufferDepth);
    phys.linkLengthMm = config.getDouble("link_mm", 2.0);
    const TimingModel tm(tech, phys);

    Table table({"Architecture", "Clock Period"});
    for (RouterArch arch : kAllArchs) {
        table.addRow({archName(arch),
                      Table::num(tm.clockPeriodNs(arch), 2) + " ns"});
    }
    table.print(std::cout);

    std::cout << "\n--- critical-path breakdown [ps] ---\n";
    for (RouterArch arch : kAllArchs) {
        const TimingBreakdown b = tm.breakdown(arch);
        std::cout << archName(arch) << ": ";
        for (std::size_t i = 0; i < b.components.size(); ++i) {
            std::cout << b.components[i].name << "="
                      << Table::num(b.components[i].delayPs, 1)
                      << (i + 1 == b.components.size() ? "" : " + ");
        }
        std::cout << "  = " << Table::num(b.totalPs, 1) << " ps\n";
    }

    const double base = tm.clockPeriodNs(RouterArch::NonSpeculative);
    std::cout << "\nfrequency vs non-speculative [paper: 33.3%, "
                 "27.8%, 21.1% faster]:\n";
    for (RouterArch arch : {RouterArch::SpecFast,
                            RouterArch::SpecAccurate,
                            RouterArch::Nox}) {
        std::cout << "  " << archName(arch) << ": +"
                  << Table::num(
                         (base / tm.clockPeriodNs(arch) - 1.0) * 100,
                         1)
                  << "%\n";
    }
    std::cout << "NoX decode overhead vs Spec-Accurate: "
              << Table::num((tm.clockPeriodNs(RouterArch::Nox) -
                             tm.clockPeriodNs(
                                 RouterArch::SpecAccurate)) *
                                1000.0,
                            1)
              << " ps  [paper: ~40 ps]\n";

    bench::warnUnused(config);
    return 0;
}
