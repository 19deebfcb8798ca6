/**
 * @file
 * Scheduling-kernel speedup — always-tick vs activity-driven.
 *
 * For each router architecture, runs the same seeded uniform-random
 * measurement point under both scheduling kernels and reports host
 * wall-clock time, simulated cycles per second, and the speedup of
 * the activity-driven kernel. At low load most of the mesh is idle
 * most cycles, so clock gating the quiescent routers should win
 * substantially (target: >=3x at 0.05 flits/node/cycle); near
 * saturation everything is busy and the kernels should be on par.
 *
 * Both kernels must agree exactly on the simulation results — any
 * mismatch is reported and fails the bench.
 *
 * Usage: bench_sched_speedup [key=value...]
 *   loads=0.05,0.30   archs=nox,...   warmup=N measure=N seed=N
 *   perf_json=out.json   csv_dir=DIR
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace nox {
namespace {

/** Offered loads in flits/node/cycle (the kernel-relevant axis). */
std::vector<double>
loadsFrom(const Config &config)
{
    auto loads = config.getDoubleList("loads");
    if (!loads.empty())
        return loads;
    return {0.05, 0.30};
}

bool
resultsAgree(const RunResult &a, const RunResult &b)
{
    return a.packetsMeasured == b.packetsMeasured &&
           a.avgLatencyCycles == b.avgLatencyCycles &&
           a.acceptedFlitsPerCycle == b.acceptedFlitsPerCycle &&
           a.maxSourceQueueFlits == b.maxSourceQueueFlits &&
           a.saturated == b.saturated && a.drained == b.drained;
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
        "Scheduling kernel: activity-driven speedup over always-tick",
        config);

    const auto archs = bench::archsFrom(config);
    const auto loads = loadsFrom(config);

    Table table({"arch", "load[f/n/c]", "tick[s]", "activity[s]",
                 "tick[Mc/s]", "activity[Mc/s]", "speedup",
                 "match"});
    std::vector<bench::PerfRecord> perf;
    bool all_match = true;
    double low_load_speedup = 0.0;

    for (RouterArch arch : archs) {
        for (double load : loads) {
            SyntheticConfig c;
            c.arch = arch;
            c.pattern = PatternKind::UniformRandom;
            bench::applyCommon(config, &c);

            // The config axis is flits/node/cycle; convert through
            // the architecture's clock so every router sees the same
            // cycle-domain load.
            const TimingModel timing(c.tech, c.phys);
            c.injectionMBps = flitsPerCycleToMbps(
                load, timing.clockPeriodNs(arch));

            c.net.schedulingMode = SchedulingMode::AlwaysTick;
            const RunResult tick = runSynthetic(c);
            c.net.schedulingMode = SchedulingMode::ActivityDriven;
            const RunResult act = runSynthetic(c);

            const bool match = resultsAgree(tick, act);
            all_match = all_match && match;
            const double speedup =
                act.wallSeconds > 0.0
                    ? tick.wallSeconds / act.wallSeconds
                    : 0.0;
            if (load <= 0.10)
                low_load_speedup =
                    std::max(low_load_speedup, speedup);

            table.addRow({archName(arch), Table::num(load, 2),
                          Table::num(tick.wallSeconds, 3),
                          Table::num(act.wallSeconds, 3),
                          Table::num(tick.cyclesPerSecond() / 1e6, 1),
                          Table::num(act.cyclesPerSecond() / 1e6, 1),
                          Table::num(speedup, 2),
                          match ? "yes" : "MISMATCH"});

            const std::string point =
                std::string(archName(arch)) + "/" +
                Table::num(load, 2);
            perf.push_back({point + "/alwaystick", tick.wallSeconds,
                            tick.cyclesSimulated});
            perf.push_back({point + "/activity", act.wallSeconds,
                            act.cyclesSimulated});
        }
    }

    table.print(std::cout);
    bench::writeCsv(config, "sched_speedup", table);
    bench::writePerfJson(config, "sched_speedup", perf);

    std::cout << "\nbest low-load speedup: "
              << Table::num(low_load_speedup, 2)
              << "x  [target: >=3x at 0.05 flits/node/cycle]\n";
    if (!all_match) {
        std::cout << "ERROR: scheduling kernels disagree on "
                     "simulation results\n";
        return 1;
    }

    bench::warnUnused(config);
    return 0;
}
