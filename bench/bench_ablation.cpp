/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out:
 *
 *   1. Arbiter flavour (round-robin / fixed-priority / matrix) in the
 *      NoX output arbitration — §2.2 claims decode order preserves
 *      "any fairness or prioritization mechanisms".
 *   2. Input buffer depth — Table 1 uses 4 entries, "the minimal
 *      necessary to cover the round trip credit loop".
 *   3. The NoX multi-flit abort policy's cost: single-flit versus
 *      9-flit packets at matched byte load.
 */

#include <iostream>

#include "bench_util.hpp"
#include "common/table.hpp"

namespace nox {
namespace {

RunResult
runWith(const Config &config, RouterArch arch, double mbps,
        ArbiterKind arb, int depth, int flits)
{
    SyntheticConfig c;
    c.arch = arch;
    c.pattern = PatternKind::UniformRandom;
    c.injectionMBps = mbps;
    c.packetFlits = flits;
    c.net.router.bufferDepth = depth;
    c.net.sinkBufferDepth = depth;
    c.net.router.arbiterKind = arb;
    bench::applyCommon(config, &c);
    return runSynthetic(c);
}

} // namespace
} // namespace nox

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader("Ablations: arbiter, buffer depth, packet size",
                       config);

    const std::vector<double> loads =
        config.has("rates") ? config.getDoubleList("rates")
                            : std::vector<double>{1000, 2000, 2600};

    // --- 1. arbiter flavour in the NoX output arbitration ---
    std::cout << "--- arbiter ablation (NoX, uniform, latency ns) "
                 "---\n";
    Table arb_table({"load MB/s", "round-robin", "fixed-priority",
                     "matrix (LRS)"});
    for (double mbps : loads) {
        std::vector<std::string> row{Table::num(mbps, 0)};
        for (ArbiterKind k :
             {ArbiterKind::RoundRobin, ArbiterKind::FixedPriority,
              ArbiterKind::Matrix}) {
            const RunResult r =
                runWith(config, RouterArch::Nox, mbps, k, 4, 1);
            row.push_back(r.saturated ? "sat"
                                      : Table::num(r.avgLatencyNs, 2));
        }
        arb_table.addRow(std::move(row));
    }
    arb_table.print(std::cout);
    std::cout << '\n';

    // --- 2. buffer depth (NoX vs Spec-Accurate) ---
    std::cout << "--- buffer depth ablation (uniform, latency ns; "
                 "'sat' = saturated) ---\n";
    Table depth_table({"depth", "load MB/s", "Spec-Accurate", "NoX"});
    for (int depth : {2, 4, 8}) {
        for (double mbps : loads) {
            std::vector<std::string> row{std::to_string(depth),
                                         Table::num(mbps, 0)};
            for (RouterArch a :
                 {RouterArch::SpecAccurate, RouterArch::Nox}) {
                const RunResult r = runWith(
                    config, a, mbps, ArbiterKind::RoundRobin, depth,
                    1);
                row.push_back(r.saturated
                                  ? "sat"
                                  : Table::num(r.avgLatencyNs, 2));
            }
            depth_table.addRow(std::move(row));
        }
    }
    depth_table.print(std::cout);

    // --- 3. packet size at matched byte load ---
    std::cout << "\n--- packet-size ablation (uniform, matched "
                 "MB/s/node) ---\n";
    Table size_table(
        {"flits/packet", "load MB/s", "NonSpec", "Spec-Fast",
         "Spec-Accurate", "NoX"});
    for (int flits : {1, 9}) {
        for (double mbps : loads) {
            std::vector<std::string> row{std::to_string(flits),
                                         Table::num(mbps, 0)};
            for (RouterArch a : kAllArchs) {
                const RunResult r = runWith(
                    config, a, mbps, ArbiterKind::RoundRobin, 4,
                    flits);
                row.push_back(r.saturated
                                  ? "sat"
                                  : Table::num(r.avgLatencyNs, 2));
            }
            size_table.addRow(std::move(row));
        }
    }
    size_table.print(std::cout);
    std::cout << "\n(single-flit traffic is where the XOR-coded "
                 "crossbar pays off; multi-flit collisions abort as "
                 "in §2.7)\n";

    // --- 4. §2.7's alternative: packet fragmentation ---
    // "routing information could be appended each packet and no
    // additional architecture modification would be necessary."
    // Model a fragmented NoX: every 72B data packet travels as
    // independently-routed single-flit packets, which all code
    // through the XOR switch (no aborts) but pay a per-flit header —
    // 6B payload per 8B flit, i.e. 12 flits instead of 9 (+33%
    // bandwidth). Compare against the contiguous-wormhole NoX the
    // paper chose, at equal *payload* load.
    std::cout << "\n--- §2.7 alternative: fragmented vs contiguous "
                 "multi-flit NoX (uniform, 72B payloads) ---\n";
    Table frag_table({"payload MB/s", "contiguous 9-flit [ns]",
                      "fragment flit [ns]", "72B reassembled [ns]",
                      "contiguous aborts", "fragmented aborts"});
    for (double mbps : loads) {
        SyntheticConfig contig;
        contig.arch = RouterArch::Nox;
        contig.pattern = PatternKind::UniformRandom;
        contig.injectionMBps = mbps;
        contig.packetFlits = 9;
        bench::applyCommon(config, &contig);
        const RunResult rc = runSynthetic(contig);

        SyntheticConfig frag = contig;
        frag.packetFlits = 1;
        // Same payload rate, 12/9 more raw flits for headers.
        frag.injectionMBps = mbps * 12.0 / 9.0;
        const RunResult rf = runSynthetic(frag);

        // A 72B payload is whole when its 12th fragment lands: about
        // 11 extra serialization cycles beyond one fragment's latency.
        const double reassembled =
            rf.avgLatencyNs + 11.0 * rf.periodNs;
        frag_table.addRow(
            {Table::num(mbps, 0),
             rc.saturated ? "sat" : Table::num(rc.avgLatencyNs, 2),
             rf.saturated ? "sat" : Table::num(rf.avgLatencyNs, 2),
             rf.saturated ? "sat" : Table::num(reassembled, 2),
             std::to_string(rc.abortCycles),
             std::to_string(rf.abortCycles)});
    }
    frag_table.print(std::cout);
    std::cout << "(fragmentation removes aborts but pays header "
                 "bandwidth and per-flit latency; the paper keeps "
                 "contiguous wormhole transmission)\n";

    bench::warnUnused(config);
    return 0;
}
