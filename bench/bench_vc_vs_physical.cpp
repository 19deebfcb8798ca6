/**
 * @file
 * §2.8: virtual channels vs multiple physical networks.
 *
 * "Multiple works have highlighted using multiple physical channels
 * as a potentially more power efficient alternative to conventional
 * virtual channel routers [1, 17, 27, 29]."
 *
 * Compares the paper's configuration — two physical 64-bit wormhole
 * networks (request + reply) of non-speculative routers — against a
 * single physical network whose non-speculative routers carry two
 * virtual channels (same per-class buffering: 4 flits/VC). Both are
 * driven by the same coherence trace: the pair is runApplication's,
 * the VC network one replayTrace() of the whole trace, so both rows
 * come from the one replay loop. Reported: per-class latency,
 * energy per packet, and power, quantifying the §2.8 trade-off:
 * the VC network halves link/crossbar hardware but serializes both
 * classes over one link; the physical pair burns more idle clock
 * but isolates classes completely.
 */

#include <iostream>

#include "bench_util.hpp"
#include "coherence/trace_generator.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "power/energy_model.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    bench::printHeader(
        "§2.8: two physical networks vs one 2-VC network "
        "(non-speculative routers)",
        config);

    const bool quick = config.getBool("quick", false);
    const double horizon =
        config.getDouble("horizon_ns", quick ? 8000.0 : 20000.0);
    const double warmup =
        config.getDouble("trace_warmup_ns", quick ? 20000.0 : 50000.0);

    // The paper's pair: runApplication's request and reply networks.
    AppConfig app;
    app.arch = RouterArch::NonSpeculative;
    const EnergyModel energy(app.tech, app.arch, app.phys);

    // Per-class columns are total latency (including source-queue
    // time): the honest signal when one class saturates its channel.
    Table t({"workload", "config", "req total [ns]",
             "reply total [ns]", "all net [ns]", "E/pkt [pJ]",
             "power [W]"});

    CmpParams params;
    for (const auto &name : bench::workloadsFrom(config)) {
        CoherenceTraceGenerator gen(params, findWorkload(name), 99);
        const Trace trace = gen.generate(horizon, warmup);

        const AppResult pair = runApplication(app, trace);
        t.addRow({name, "2 physical",
                  Table::num(pair.avgTotalLatencyNsRequest, 2),
                  Table::num(pair.avgTotalLatencyNsReply, 2),
                  Table::num(pair.avgLatencyNs, 2),
                  Table::num(pair.energyPerPacketPj, 1),
                  Table::num(pair.powerW, 3)});

        // One network, both classes: injectPacket maps Reply to VC1.
        NetworkParams vcNet;
        vcNet.router.vcCount = 2;
        const double period = pair.periodNs;
        const ReplayOutcome vc =
            replayTrace(vcNet, app.arch, trace.records, period,
                        app.drainLimitCycles);
        if (!vc.drained)
            warn("the 2-VC replay of ", name, " did not drain");
        const NetworkStats &s = vc.stats;
        const auto classNs = [&](TrafficClass cls) {
            return s.latencyByClass[static_cast<std::size_t>(cls)]
                       .mean() *
                   period;
        };
        t.addRow({name, "1 net, 2 VCs",
                  Table::num(classNs(TrafficClass::Request), 2),
                  Table::num(classNs(TrafficClass::Reply), 2),
                  Table::num(s.netLatency.mean() * period, 2),
                  Table::num(energy.energyOf(vc.events).totalPj() /
                                 static_cast<double>(s.packetsEjected),
                             1),
                  Table::num(energy.powerW(vc.events, period, vc.cycles),
                             3)});
    }
    t.print(std::cout);
    bench::writeCsv(config, "vc_vs_physical", t);

    std::cout << "\n(the physical pair isolates classes completely "
                 "and spreads load over twice the links; the VC "
                 "network halves the wire/switch hardware but time-"
                 "multiplexes one link — §2.8's trade-off)\n";

    bench::warnUnused(config);
    return 0;
}
