#include "core/sim_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "noc/fault_injector.hpp"
#include "noc/network.hpp"
#include "obs/obs_params.hpp"
#include "noc/snapshot_codec.hpp"
#include "routers/factory.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/pareto_source.hpp"
#include "traffic/replay_source.hpp"

namespace nox {

double
mbpsToFlitsPerCycle(double mbps, double period_ns)
{
    // MB/s = 1e6 B / 1e9 ns = 1e-3 B/ns; 8 bytes per flit.
    return mbps * 1e-3 / 8.0 * period_ns;
}

double
flitsPerCycleToMbps(double flits_per_cycle, double period_ns)
{
    return flits_per_cycle * 8.0 / period_ns * 1e3;
}

SyntheticConfig
parseSyntheticConfig(const Config &config)
{
    SyntheticConfig c;
    c.arch = parseArch(config.getString("arch", "nox").c_str());
    c.pattern = parsePattern(config.getString("pattern", "uniform"));
    c.injectionMBps = config.getDouble("rate_mbps", 1000.0, 0.0);
    c.selfSimilar = config.getBool("selfsimilar", false);
    if (c.selfSimilar && c.injectionMBps == 0.0) {
        fatal("rate_mbps=0 is out of range (valid: above 0 with "
              "selfsimilar=true)");
    }
    c.packetFlits =
        config.getInt("packet_flits", c.packetFlits, 1, kMaxPacketFlits);

    c.net = networkParamsFromConfig(config);
    const Mesh mesh(c.net.width, c.net.height, c.net.concentration);
    if (const char *need = patternMeshNeed(c.pattern, mesh)) {
        fatal("pattern=", patternName(c.pattern), " needs ", need,
              " (width=", mesh.width(), " height=", mesh.height(),
              " concentration=", mesh.concentration(), ")");
    }

    c.warmupCycles = config.getUint("warmup", c.warmupCycles);
    c.measureCycles = config.getUint("measure", c.measureCycles, 1);
    c.drainLimitCycles =
        config.getUint("drain_limit", c.drainLimitCycles);
    // Phase boundaries are absolute cycles: the drain deadline
    // warmup + measure + drain_limit must be one.
    constexpr Cycle kMaxCycle = std::numeric_limits<Cycle>::max();
    if (c.measureCycles > kMaxCycle - c.warmupCycles ||
        c.drainLimitCycles >
            kMaxCycle - c.warmupCycles - c.measureCycles) {
        fatal("warmup=", c.warmupCycles, " measure=", c.measureCycles,
              " drain_limit=", c.drainLimitCycles,
              " is out of range (valid: a sum of at most ", kMaxCycle,
              ")");
    }
    c.seed = config.getUint("seed", c.seed);
    c.net.schedulingMode = parseSchedulingMode(
        config.getString("scheduling", "alwaystick").c_str());

    const std::string arb = config.getString("arbiter", "roundrobin");
    if (arb == "fixed")
        c.net.router.arbiterKind = ArbiterKind::FixedPriority;
    else if (arb == "matrix")
        c.net.router.arbiterKind = ArbiterKind::Matrix;
    else if (arb != "roundrobin")
        fatal("arbiter=", arb, " is not an arbiter (valid: roundrobin, "
              "fixed, matrix)");

    c.checkpointInterval =
        config.getUint("checkpoint_interval", c.checkpointInterval);
    c.checkpointFile =
        config.getString("checkpoint_file", c.checkpointFile);
    c.checkpointKeep = config.getInt("checkpoint_keep", c.checkpointKeep,
                                     1, snap::kMaxCheckpointKeep);
    c.resumePath = config.getString("resume");

    c.net.debugPerturbCycle = config.getUint("perturb_cycle", 0);
    c.net.debugPerturbRouter =
        config.getInt("perturb_router", 0, 0, mesh.numRouters() - 1);
    return c;
}

namespace {

/** The physical model follows the topology: the input FIFOs are as
 *  deep as the network's, and concentrated meshes have higher-radix
 *  routers and (same die area, fewer routers) proportionally longer
 *  channels — §8's future-work setting. */
PhysicalParams
meshPhysical(const SyntheticConfig &config)
{
    PhysicalParams phys = config.phys;
    phys.bufferDepth = config.net.router.bufferDepth;
    const int conc = config.net.concentration;
    if (conc > 1) {
        phys.ports = meshRadix(conc);
        phys.linkLengthMm *= std::sqrt(static_cast<double>(conc));
    }
    return phys;
}

} // namespace

SyntheticNet
buildSyntheticNetwork(const SyntheticConfig &config)
{
    const double period = TimingModel(config.tech, meshPhysical(config))
                              .clockPeriodNs(config.arch);
    const double offered = mbpsToFlitsPerCycle(config.injectionMBps,
                                               period);
    // A Bernoulli source offers at most one packet a cycle, and an ON
    // burst of a self-similar one exactly that, so its mean is less.
    const double peak = config.packetFlits;
    if (offered > peak || (config.selfSimilar && offered >= peak)) {
        fatal("rate_mbps=", config.injectionMBps,
              " is out of range (valid: ",
              config.selfSimilar ? "below " : "up to ",
              flitsPerCycleToMbps(peak, period),
              ", packet_flits=", config.packetFlits,
              " flits per node per cycle at a ", period, " ns clock)");
    }
    SyntheticNet built;
    built.net = makeNetwork(config.net, config.arch);
    built.pattern = std::make_unique<DestinationPattern>(
        config.pattern, built.net->mesh());
    Rng seeder(config.seed);
    for (NodeId n = 0; n < built.net->numNodes(); ++n) {
        if (config.selfSimilar) {
            built.net->addSource(std::make_unique<ParetoSource>(
                n, *built.pattern, offered, config.packetFlits,
                seeder.next()));
        } else {
            built.net->addSource(std::make_unique<BernoulliSource>(
                n, *built.pattern, offered, config.packetFlits,
                seeder.next()));
        }
    }
    built.net->setMeasurementWindow(
        config.warmupCycles,
        config.warmupCycles + config.measureCycles);
    return built;
}

std::string
syntheticRunnerFingerprint(const SyntheticConfig &config)
{
    // The Network fingerprint covers construction parameters only;
    // runner-level knobs (traffic pattern, offered load, window
    // boundaries, seed) live here so a resume under a different
    // experiment is rejected instead of silently continuing wrong.
    std::ostringstream rfp;
    rfp.precision(17);
    rfp << "pattern="
        << (config.selfSimilar ? "selfsimilar"
                               : patternName(config.pattern))
        << " rate_mbps=" << config.injectionMBps
        << " flits=" << config.packetFlits
        << " hotspot=" << kHotspotFraction
        << " warmup=" << config.warmupCycles
        << " measure=" << config.measureCycles
        << " drain_limit=" << config.drainLimitCycles
        << " seed=" << config.seed;
    return rfp.str();
}

namespace {

/**
 * The runner section (RUNR) of a noxsim checkpoint: the experiment
 * fingerprint, then the energy snapshots bracketing the measurement
 * window, each absent until its boundary has passed. A load rejects
 * a snapshot of another experiment.
 */
template <typename Ar>
void
runnerLayout(Ar &ar, const std::string &fingerprint,
             snap::Field<Ar, std::optional<EnergyEvents>> before,
             snap::Field<Ar, std::optional<EnergyEvents>> after)
{
    snap::tag(ar, snap::fourcc("RUNR"));
    std::string saved = fingerprint;
    snap::io(ar, saved);
    if (saved != fingerprint) {
        throw snap::SnapshotError(
            "snapshot was taken from a different experiment:\n"
            "  snapshot: " +
            saved + "\n  this run: " + fingerprint);
    }
    snap::ioOptional(ar, before);
    snap::ioOptional(ar, after);
}

} // namespace

RunResult
runSynthetic(const SyntheticConfig &config)
{
    RunResult res;
    res.arch = config.arch;

    const PhysicalParams phys = meshPhysical(config);
    res.periodNs = TimingModel(config.tech, phys).clockPeriodNs(config.arch);
    res.offeredMBps = config.injectionMBps;
    res.offeredFlitsPerCycle =
        mbpsToFlitsPerCycle(config.injectionMBps, res.periodNs);

    if (res.offeredFlitsPerCycle >= 1.0) {
        // Beyond the injection channel's peak: trivially saturated.
        res.saturated = true;
        res.drained = false;
        return res;
    }

    SyntheticNet built = buildSyntheticNetwork(config);
    auto &net = built.net;

    const Cycle m0 = config.warmupCycles;
    const Cycle m1 = config.warmupCycles + config.measureCycles;

    // Runner-phase state that outlives a checkpoint: the energy
    // snapshots bracketing the measurement window, each empty until
    // its boundary passes (a checkpoint may fire before either).
    std::optional<EnergyEvents> before, after;

    const std::string runnerFp = syntheticRunnerFingerprint(config);

    if (!config.resumePath.empty()) {
        try {
            const snap::SnapshotFile file =
                snap::loadSnapshotFile(config.resumePath);
            snap::restoreNetwork(*net, file);
            const snap::Section &rsec =
                file.require(snap::kSectionRunner);
            snap::Reader rr(rsec.payload.data(),
                            rsec.payload.size());
            runnerLayout(rr, runnerFp, before, after);
            rr.expectEnd();
        } catch (const snap::SnapshotError &e) {
            fatal("cannot resume from '", config.resumePath,
                  "': ", e.what());
        }
    }

    if (config.checkpointInterval > 0) {
        net->installCheckpoint(
            config.checkpointInterval, [&](Network &n) {
                snap::SnapshotFile image =
                    snap::captureNetwork(n, "noxsim");
                snap::Writer rw;
                runnerLayout(rw, runnerFp, before, after);
                image.sections.push_back(
                    {snap::kSectionRunner, rw.take()});
                snap::writeSnapshotFileAtomic(
                    config.checkpointFile,
                    snap::encodeSnapshotFile(image),
                    config.checkpointKeep);
            });
    }

    // The drain tail is open-ended, so the ETA targets the end of the
    // measurement window — the last boundary known in advance.
    if (net->telemetry())
        net->telemetry()->setTargetCycles(m1);

    // Wall-clock the whole simulation (warmup + measure + drain) —
    // this is the quantity the scheduling kernels are compared on.
    const auto wall0 = std::chrono::steady_clock::now();

    // Phase boundaries are absolute cycles, so a resumed run simply
    // finishes whatever remains of each phase (possibly nothing).
    const Cycle start = net->now();
    net->run(start < m0 ? m0 - start : 0);
    if (!before)
        before = net->totalEnergyEvents();
    net->run(net->now() < m1 ? m1 - net->now() : 0);
    if (!after)
        after = net->totalEnergyEvents();

    net->setSourcesEnabled(false);
    const Cycle deadline = m1 + config.drainLimitCycles;
    res.drained =
        net->drain(net->now() < deadline ? deadline - net->now() : 0);
    if (!res.drained)
        res.drainDiagnosis = net->lastDrainReport().summary();

    const auto wall1 = std::chrono::steady_clock::now();
    res.wallSeconds =
        std::chrono::duration<double>(wall1 - wall0).count();
    res.cyclesSimulated = net->now();

    // End-of-run observability flush: final partial metrics window,
    // JSONL + Chrome trace exports. Outside the wall-clock window so
    // export I/O never pollutes the kernel-speed comparison.
    net->finishObservability();
    if (const LatencyProvenance *prov = net->provenance()) {
        res.provenance = true;
        res.breakdown = prov->total();
        for (int cls = 0; cls < 3; ++cls) {
            res.breakdownByClass[static_cast<std::size_t>(cls)] =
                prov->byClass(static_cast<TrafficClass>(cls));
        }
        res.provenanceViolations = prov->conservationViolations();
    }
    if (const PhaseProfiler *prof = net->profiler()) {
        res.profiled = true;
        for (std::size_t p = 0; p < kNumSimPhases; ++p) {
            const PhaseTotals &t =
                prof->phase(static_cast<SimPhase>(p));
            res.phaseSeconds[p] = static_cast<double>(t.ns) * 1e-9;
            res.phaseEnters[p] = t.enters;
        }
        res.profiledTotalSeconds =
            static_cast<double>(prof->totalNs()) * 1e-9;
        res.profileCoverage = prof->coverage();
        const int shards = std::min(4, config.net.height);
        const std::vector<int> shardOf = rowStripePartition(
            config.net.width, config.net.height, shards);
        std::vector<std::uint64_t> evals, flits;
        for (NodeId r = 0;
             r < static_cast<NodeId>(prof->numRouters()); ++r) {
            const RouterWork w = prof->routerWork(r);
            evals.push_back(w.evaluations);
            flits.push_back(w.flitsMoved);
        }
        if (shardOf.size() == evals.size()) {
            res.imbalanceEvals = loadImbalance(evals, shardOf, shards);
            res.imbalanceFlits = loadImbalance(flits, shardOf, shards);
        }
    }
    if (const DigestLedger *digest = net->digest()) {
        res.digestStrides =
            static_cast<std::int64_t>(digest->strideCount());
        res.lastDigestCycle = digest->lastDigestCycle();
    }
    if (net->metrics() && net->metrics()->params().heatmap) {
        std::ostringstream os;
        net->metrics()
            ->heatmapTable(config.net.width, config.net.height)
            .print(os);
        res.metricsHeatmap = os.str();
    }

    const NetworkStats &stats = net->stats();
    res.packetsMeasured = stats.latency.count();
    res.avgLatencyCycles = stats.latency.mean();
    res.avgLatencyNs = res.avgLatencyCycles * res.periodNs;
    res.p50LatencyNs = stats.latencyHist.percentile(50) * res.periodNs;
    res.p95LatencyNs = stats.latencyHist.percentile(95) * res.periodNs;
    res.p99LatencyNs = stats.latencyHist.percentile(99) * res.periodNs;
    res.latencyHistOverflow = stats.latencyHist.overflowCount();
    res.latencyHistWidenings = stats.latencyHist.widenings();
    res.acceptedFlitsPerCycle =
        stats.acceptedFlitsPerNodeCycle(net->numNodes());
    res.acceptedMBps =
        flitsPerCycleToMbps(res.acceptedFlitsPerCycle, res.periodNs);
    res.maxSourceQueueFlits = stats.maxSourceQueueFlits;
    res.faults = stats.faults;

    // Saturation: the network no longer accepts the load its sources
    // actually created (silent sources under deterministic patterns
    // lower the real offered load, so compare against creations), or
    // source queues grew without bound during the window. Self-
    // similar sources are legitimately bursty, so only the throughput
    // check applies to them (with a looser margin).
    const double accept_ratio =
        stats.flitsCreatedInWindow > 0
            ? static_cast<double>(stats.flitsEjectedInWindow) /
                  static_cast<double>(stats.flitsCreatedInWindow)
            : 1.0;
    if (config.selfSimilar) {
        res.saturated = accept_ratio < 0.85 || !res.drained;
    } else {
        res.saturated = accept_ratio < 0.92 || !res.drained ||
                        res.maxSourceQueueFlits >
                            static_cast<std::size_t>(
                                200 + 40 * config.packetFlits);
    }

    const EnergyModel energy(config.tech, config.arch, phys);
    const EnergyEvents window = diff(*after, *before);
    res.abortCycles = window.abortCycles;
    res.misspecCycles = window.misspecCycles;
    res.flitHops = window.linkFlits + window.localLinkFlits;
    res.wastedLinkCycles =
        window.linkWastedCycles + window.localLinkWasted;
    res.energy = energy.energyOf(window);
    res.powerW =
        energy.powerW(window, res.periodNs, config.measureCycles);
    if (res.packetsMeasured > 0) {
        res.energyPerPacketPj =
            res.energy.totalPj() /
            static_cast<double>(stats.flitsEjectedInWindow) *
            static_cast<double>(config.packetFlits);
        res.ed2 = res.energyPerPacketPj * res.avgLatencyNs *
                  res.avgLatencyNs;
    }
    return res;
}

ReplayOutcome
replayTrace(const NetworkParams &params, RouterArch arch,
            std::vector<TraceRecord> records, double period_ns,
            Cycle cycle_limit)
{
    auto net = makeNetwork(params, arch);
    auto source =
        std::make_unique<ReplaySource>(std::move(records), period_ns);
    ReplaySource *replay = source.get();
    net->addSource(std::move(source));

    ReplayOutcome out;
    Cycle guard = 0;
    while ((!replay->done() || net->packetsInFlight() > 0) &&
           guard < cycle_limit) {
        net->step();
        ++guard;
    }
    out.drained = replay->done() && net->packetsInFlight() == 0;
    out.stats = net->stats();
    out.events = net->totalEnergyEvents();
    out.cycles = net->now();
    return out;
}

AppResult
runApplication(const AppConfig &config, const Trace &trace)
{
    AppResult res;
    res.arch = config.arch;

    const TimingModel timing(config.tech, config.phys);
    res.periodNs = timing.clockPeriodNs(config.arch);

    // Trace files are untrusted input: every endpoint must be a node
    // of this mesh, and every injection a cycle count, before any
    // record reaches a network.
    const int nodes = config.width * config.height;
    constexpr double kCycleRange = 0x1p64;
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const TraceRecord &r = trace.records[i];
        if (r.src < 0 || r.src >= nodes || r.dst < 0 || r.dst >= nodes) {
            fatal("trace record ", i, " (time_ns ", r.timeNs, ", src ",
                  r.src, ", dst ", r.dst, ") names a node outside the ",
                  config.width, "x", config.height, " mesh (valid: 0..",
                  nodes - 1, ")");
        }
        // ReplaySource's injection cycle, before its cast to Cycle.
        const double cycle = std::ceil(r.timeNs / res.periodNs);
        if (!(cycle >= 0.0 && cycle < kCycleRange)) {
            fatal("trace record ", i, " (time_ns ", r.timeNs,
                  ") injects outside the cycle range of a ",
                  res.periodNs, " ns clock (valid: cycle 0..2^64-1)");
        }
    }

    // Two physical 64-bit wormhole networks isolate the request and
    // reply coherence classes (§5.2 / Table 1).
    NetworkParams params;
    params.width = config.width;
    params.height = config.height;
    params.router.bufferDepth = config.bufferDepth;
    params.sinkBufferDepth = config.sinkBufferDepth;
    const ReplayOutcome req =
        replayTrace(params, config.arch, trace.forNetwork(0),
                    res.periodNs, config.drainLimitCycles);
    const ReplayOutcome rep =
        replayTrace(params, config.arch, trace.forNetwork(1),
                    res.periodNs, config.drainLimitCycles);
    res.drained = req.drained && rep.drained;
    if (!res.drained) {
        warn("application replay did not drain for ",
             archName(config.arch));
    }

    SampleStats all = req.stats.netLatency;
    all.merge(rep.stats.netLatency);
    SampleStats total = req.stats.latency;
    total.merge(rep.stats.latency);
    res.packets = all.count();
    res.avgLatencyCycles = all.mean();
    res.avgLatencyNs = res.avgLatencyCycles * res.periodNs;
    res.avgTotalLatencyNs = total.mean() * res.periodNs;
    res.avgLatencyNsRequest =
        req.stats.netLatency.mean() * res.periodNs;
    res.avgLatencyNsReply =
        rep.stats.netLatency.mean() * res.periodNs;
    res.avgTotalLatencyNsRequest =
        req.stats.latency.mean() * res.periodNs;
    res.avgTotalLatencyNsReply =
        rep.stats.latency.mean() * res.periodNs;

    const EnergyModel energy(config.tech, config.arch, config.phys);
    EnergyEvents events = req.events;
    events.merge(rep.events);
    res.energy = energy.energyOf(events);
    const Cycle span = std::max(req.cycles, rep.cycles);
    res.powerW = energy.powerW(events, res.periodNs, span);
    if (res.packets > 0) {
        res.energyPerPacketPj =
            res.energy.totalPj() / static_cast<double>(res.packets);
        res.ed2 = res.energyPerPacketPj * res.avgLatencyNs *
                  res.avgLatencyNs;
    }
    return res;
}

} // namespace nox
