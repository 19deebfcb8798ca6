/**
 * @file
 * Quickstart: the smallest useful noxsim program.
 *
 * Builds the paper's 8x8 mesh of NoX routers, offers uniform random
 * single-flit traffic at 1 GB/s/node, and prints latency, throughput
 * and energy numbers.
 *
 *   $ ./quickstart [arch=nox] [rate_mbps=1000]
 */

#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/sim_runner.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);

    SyntheticConfig c;
    c.arch = parseArch(config.getString("arch", "nox").c_str());
    c.injectionMBps = config.getDouble("rate_mbps", 1000.0);
    c.pattern = parsePattern(config.getString("pattern", "uniform"));

    std::cout << "simulating a " << c.net.width << "x" << c.net.height
              << " mesh of " << archName(c.arch) << " routers, "
              << patternName(c.pattern) << " traffic at "
              << c.injectionMBps << " MB/s/node...\n\n";

    const RunResult r = runSynthetic(c);

    Table t({"metric", "value"});
    t.addRow({"clock period", Table::num(r.periodNs, 2) + " ns"});
    t.addRow({"offered load",
              Table::num(r.offeredFlitsPerCycle, 3) + " flits/cycle"});
    t.addRow({"accepted load",
              Table::num(r.acceptedMBps, 0) + " MB/s/node"});
    t.addRow({"packets measured", std::to_string(r.packetsMeasured)});
    t.addRow({"avg latency",
              Table::num(r.avgLatencyCycles, 2) + " cycles = " +
                  Table::num(r.avgLatencyNs, 2) + " ns"});
    t.addRow({"network power", Table::num(r.powerW, 2) + " W"});
    t.addRow({"energy/packet",
              Table::num(r.energyPerPacketPj, 1) + " pJ"});
    t.addRow({"energy-delay^2",
              Table::num(r.ed2, 0) + " pJ*ns^2"});
    t.addRow({"link energy share",
              Table::num(r.energy.linkFraction() * 100.0, 1) + " %"});
    t.addRow({"saturated", r.saturated ? "yes" : "no"});
    t.print(std::cout);
    return 0;
}
