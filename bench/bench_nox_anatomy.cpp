/**
 * @file
 * NoX microarchitecture anatomy: how often the §2.6 arbitration
 * machinery actually operates in each mode, the distribution of
 * collision sizes the XOR switch resolves, abort frequency vs the
 * speculative routers' misspeculations, and how much traffic ends up
 * pre-scheduled ("performing similarly to an aggressively
 * speculative baseline when requests can be pre-scheduled").
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "routers/nox_router.hpp"

namespace nox {
namespace {

struct AnatomyPoint
{
    NoxStats stats;
    std::uint64_t specMisspecs = 0;
};

/** Build and run @p arch for warmup + measure cycles of uniform
 *  Bernoulli traffic at @p mbps, each node seeded from seed 7. */
SyntheticNet
runUniform(RouterArch arch, double mbps, int packet_flits,
           const Config &config)
{
    SyntheticConfig c;
    c.arch = arch;
    c.injectionMBps = mbps;
    c.packetFlits = packet_flits;
    c.seed = 7;
    c.warmupCycles = config.getUint("warmup", 5000);
    c.measureCycles = config.getUint("measure", 20000);
    SyntheticNet built = buildSyntheticNetwork(c);
    built.net->run(c.warmupCycles + c.measureCycles);
    return built;
}

AnatomyPoint
measure(double mbps, int packet_flits, const Config &config)
{
    AnatomyPoint point;
    {
        const SyntheticNet built =
            runUniform(RouterArch::Nox, mbps, packet_flits, config);
        const Network &net = *built.net;
        for (NodeId n = 0; n < net.numNodes(); ++n) {
            const auto &r = static_cast<const NoxRouter &>(net.router(n));
            const NoxStats &s = r.noxStats();
            for (std::size_t i = 0; i < s.collisionsBySize.size(); ++i)
                point.stats.collisionsBySize[i] += s.collisionsBySize[i];
            point.stats.recoveryCycles += s.recoveryCycles;
            point.stats.scheduledCycles += s.scheduledCycles;
            point.stats.lockedCycles += s.lockedCycles;
            point.stats.cleanTraversals += s.cleanTraversals;
            point.stats.prescheduled += s.prescheduled;
            point.stats.aborts += s.aborts;
        }
    }
    // Spec-Accurate reference for the misspeculation comparison.
    point.specMisspecs =
        runUniform(RouterArch::SpecAccurate, mbps, packet_flits, config)
            .net->totalEnergyEvents()
            .misspecCycles;
    return point;
}

} // namespace
} // namespace nox

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader("NoX anatomy: modes, collisions, aborts",
                       config);

    const std::vector<double> loads =
        config.has("rates") ? config.getDoubleList("rates")
                            : std::vector<double>{500, 1500, 2500};

    for (int flits : {1, 9}) {
        std::cout << "--- " << flits << "-flit packets ---\n";
        Table t({"MB/s/node", "clean", "coll2", "coll3", "coll4+",
                 "aborts", "presched", "spec-misspec",
                 "recovery%", "scheduled%", "locked%"});
        for (double mbps : loads) {
            const AnatomyPoint p = measure(mbps, flits, config);
            const double mode_total = static_cast<double>(
                p.stats.recoveryCycles + p.stats.scheduledCycles +
                p.stats.lockedCycles);
            const std::uint64_t coll4plus =
                p.stats.collisionsBySize[4] +
                p.stats.collisionsBySize[5];
            t.addRow(
                {Table::num(mbps, 0),
                 std::to_string(p.stats.cleanTraversals),
                 std::to_string(p.stats.collisionsBySize[2]),
                 std::to_string(p.stats.collisionsBySize[3]),
                 std::to_string(coll4plus),
                 std::to_string(p.stats.aborts),
                 std::to_string(p.stats.prescheduled),
                 std::to_string(p.specMisspecs),
                 Table::num(100.0 * p.stats.recoveryCycles /
                                mode_total, 1),
                 Table::num(100.0 * p.stats.scheduledCycles /
                                mode_total, 1),
                 Table::num(100.0 * p.stats.lockedCycles /
                                mode_total, 1)});
        }
        t.print(std::cout);
        std::cout << '\n';
    }
    std::cout << "(aborts should be far rarer than the speculative "
                 "router's misspeculations — §2.7)\n";

    bench::warnUnused(config);
    return 0;
}
