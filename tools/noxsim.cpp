/**
 * @file
 * noxsim — the general-purpose command-line front end.
 *
 * Runs a single synthetic or application experiment fully described
 * by key=value arguments (or `--file experiment.cfg`), printing a
 * machine-readable result block. This is the OSS entry point for
 * anyone who wants one number instead of a whole figure sweep.
 *
 * Synthetic mode (default):
 *   noxsim arch=nox pattern=tornado rate_mbps=1500 [selfsimilar=true]
 *          [concentration=4]
 *          [packet_flits=1] [width=8 height=8] [buffer_depth=4]
 *          [warmup=N measure=N] [seed=N] [csv=path]
 *          [digest=true digest_interval=N digest_file=path]
 *          [perturb_cycle=K perturb_router=R]   (test/debug: seed a
 *           deliberate divergence for `trace_tool diff`/`bisect`)
 *
 * Application mode:
 *   noxsim mode=app arch=nox workload=tpcc [horizon_ns=25000]
 *          [trace=path.trace]   (trace= replays a saved trace file)
 */

#include <algorithm>
#include <fstream>
#include <iostream>

#include "coherence/trace_generator.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "core/sim_runner.hpp"
#include "obs/obs_params.hpp"

namespace {

using namespace nox;

int
runSyntheticMode(const Config &config)
{
    // All synthetic-run keys (including checkpoint/resume, digest and
    // the perturb knobs) parse through the shared core parser, so a
    // `trace_tool bisect` re-run accepts exactly this tool's keys.
    const SyntheticConfig c = parseSyntheticConfig(config);

    const std::string csvPath = config.getString("csv");
    // Typos fail before the run burns cycles, not after.
    config.requireAllUsed("noxsim");

    const RunResult r = runSynthetic(c);

    Table t({"key", "value"});
    t.addRow({"mode", "synthetic"});
    t.addRow({"arch", archName(r.arch)});
    t.addRow({"pattern", c.selfSimilar ? "selfsimilar"
                                       : patternName(c.pattern)});
    t.addRow({"period_ns", Table::num(r.periodNs, 4)});
    t.addRow({"offered_mbps", Table::num(r.offeredMBps, 1)});
    t.addRow({"accepted_mbps", Table::num(r.acceptedMBps, 1)});
    t.addRow({"latency_cycles", Table::num(r.avgLatencyCycles, 3)});
    t.addRow({"latency_ns", Table::num(r.avgLatencyNs, 3)});
    t.addRow({"p50_latency_ns", Table::num(r.p50LatencyNs, 3)});
    t.addRow({"p95_latency_ns", Table::num(r.p95LatencyNs, 3)});
    t.addRow({"p99_latency_ns", Table::num(r.p99LatencyNs, 3)});
    t.addRow({"latency_hist_overflow",
              std::to_string(r.latencyHistOverflow)});
    t.addRow({"latency_hist_widenings",
              std::to_string(r.latencyHistWidenings)});
    t.addRow({"packets", std::to_string(r.packetsMeasured)});
    t.addRow({"saturated", r.saturated ? "1" : "0"});
    t.addRow({"power_w", Table::num(r.powerW, 4)});
    t.addRow({"energy_per_packet_pj",
              Table::num(r.energyPerPacketPj, 2)});
    t.addRow({"ed2_pj_ns2", Table::num(r.ed2, 1)});
    t.addRow({"link_energy_share",
              Table::num(r.energy.linkFraction(), 4)});
    const FaultParams &faults = c.net.faults;
    if (faults.enabled) {
        t.addRow({"faults_injected",
                  std::to_string(r.faults.faultsInjected)});
        t.addRow({"faults_detected",
                  std::to_string(r.faults.faultsDetected)});
        t.addRow({"retransmissions",
                  std::to_string(r.faults.retransmissions)});
        t.addRow({"credit_resyncs",
                  std::to_string(r.faults.creditResyncs)});
        t.addRow({"corrupted_escapes",
                  std::to_string(r.faults.corruptedEscapes)});
        t.addRow({"decode_mismatches",
                  std::to_string(r.faults.decodeMismatches)});
        t.addRow({"hard_link_faults",
                  std::to_string(r.faults.hardLinkFaults)});
        t.addRow({"hard_router_faults",
                  std::to_string(r.faults.hardRouterFaults)});
        t.addRow({"table_rebuilds",
                  std::to_string(r.faults.tableRebuilds)});
        t.addRow({"packets_lost_hard",
                  std::to_string(r.faults.packetsLostHard)});
        t.addRow({"flits_lost_hard",
                  std::to_string(r.faults.flitsLostHard)});
        t.addRow({"unreachable_rejected",
                  std::to_string(r.faults.unreachableRejected)});
        t.addRow({"flow_reorders",
                  std::to_string(r.faults.flowReorders)});
        t.addRow({"age_alarms",
                  std::to_string(r.faults.ageAlarms)});
        if (faults.e2eTransport) {
            t.addRow({"e2e_retransmits",
                      std::to_string(r.faults.e2eRetransmits)});
            t.addRow({"dup_suppressed",
                      std::to_string(r.faults.dupSuppressed)});
            t.addRow({"delivery_failures",
                      std::to_string(r.faults.deliveryFailures)});
        }
        if (faults.churnWaves > 0) {
            t.addRow({"link_heals",
                      std::to_string(r.faults.linkHeals)});
            t.addRow({"router_heals",
                      std::to_string(r.faults.routerHeals)});
        }
    }
    if (r.provenance) {
        // Latency attribution: where the mean packet's cycles went.
        // Components conserve (they sum to total latency cycles);
        // nonzero violations indicate a simulator bug.
        const double pkts = std::max<double>(
            1.0, static_cast<double>(r.breakdown.packets));
        for (std::size_t i = 0; i < kNumLatencyComponents; ++i) {
            const auto c = static_cast<LatencyComponent>(i);
            t.addRow({std::string("lat_") + latencyComponentName(c) +
                          "_cycles",
                      Table::num(static_cast<double>(r.breakdown[c]) /
                                     pkts,
                                 3)});
        }
        t.addRow({"provenance_violations",
                  std::to_string(r.provenanceViolations)});
    }
    if (r.profiled) {
        // Host-cost decomposition: where each simulated cycle's wall
        // time went. Coverage is the scoped fraction of stepped time;
        // the remainder is unscoped inter-phase glue.
        t.addRow({"sim_cycles_per_s",
                  Table::num(r.wallSeconds > 0.0
                                 ? static_cast<double>(
                                       r.cyclesSimulated) /
                                       r.wallSeconds
                                 : 0.0,
                             1)});
        for (std::size_t p = 0; p < kNumSimPhases; ++p) {
            t.addRow({std::string("prof_") +
                          simPhaseName(static_cast<SimPhase>(p)) +
                          "_s",
                      Table::num(r.phaseSeconds[p], 4)});
        }
        t.addRow({"prof_total_s",
                  Table::num(r.profiledTotalSeconds, 4)});
        t.addRow({"prof_coverage",
                  Table::num(r.profileCoverage, 4)});
        t.addRow({"prof_imbalance_evals",
                  Table::num(r.imbalanceEvals, 4)});
        t.addRow({"prof_imbalance_flits",
                  Table::num(r.imbalanceFlits, 4)});
    }
    if (r.digestStrides >= 0) {
        t.addRow({"digest_strides",
                  std::to_string(r.digestStrides)});
        t.addRow({"last_digest_cycle",
                  std::to_string(r.lastDigestCycle)});
    }
    t.addRow({"drained", r.drained ? "1" : "0"});
    if (!r.drained)
        nox::warn("synthetic run did not drain: ", r.drainDiagnosis);
    if (!csvPath.empty()) {
        std::ofstream out(csvPath);
        t.printCsv(out);
    }
    t.print(std::cout);
    if (!r.metricsHeatmap.empty()) {
        std::cout << "\nmean link utilization (flits/cycle per "
                     "router, mesh outputs)\n"
                  << r.metricsHeatmap;
    }
    return r.drained ? 0 : 1;
}

int
runAppMode(const Config &config)
{
    if (config.has("resume") || config.has("checkpoint_interval") ||
        config.has("checkpoint_file") || config.has("checkpoint_keep"))
        fatal("checkpoint/resume is not supported in app mode");

    AppConfig c;
    c.arch = parseArch(config.getString("arch", "nox").c_str());

    const Trace trace = config.has("trace")
                            ? readTraceFile(config.getString("trace"))
                            : traceFromConfig(config);

    const std::string csvPath = config.getString("csv");
    config.requireAllUsed("noxsim");

    const AppResult r = runApplication(c, trace);

    Table t({"key", "value"});
    t.addRow({"mode", "application"});
    t.addRow({"arch", archName(r.arch)});
    t.addRow({"trace", trace.name});
    t.addRow({"period_ns", Table::num(r.periodNs, 4)});
    t.addRow({"packets", std::to_string(r.packets)});
    t.addRow({"net_latency_ns", Table::num(r.avgLatencyNs, 3)});
    t.addRow({"total_latency_ns",
              Table::num(r.avgTotalLatencyNs, 3)});
    t.addRow({"req_latency_ns",
              Table::num(r.avgLatencyNsRequest, 3)});
    t.addRow({"reply_latency_ns",
              Table::num(r.avgLatencyNsReply, 3)});
    t.addRow({"power_w", Table::num(r.powerW, 4)});
    t.addRow({"energy_per_packet_pj",
              Table::num(r.energyPerPacketPj, 2)});
    t.addRow({"ed2_pj_ns2", Table::num(r.ed2, 1)});
    t.addRow({"drained", r.drained ? "1" : "0"});
    if (!csvPath.empty()) {
        std::ofstream out(csvPath);
        t.printCsv(out);
    }
    t.print(std::cout);
    return r.drained ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);
    const std::string mode = config.getString("mode", "synthetic");
    int rc;
    if (mode == "app" || mode == "application") {
        rc = runAppMode(config);
    } else if (mode == "synthetic") {
        rc = runSyntheticMode(config);
    } else {
        nox::fatal("unknown mode '", mode,
                   "' (expected synthetic|app)");
    }
    return rc;
}
