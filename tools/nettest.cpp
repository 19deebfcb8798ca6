/**
 * @file
 * nettest — randomized network soak tester.
 *
 * Fuzzes a network configuration with randomized traffic (mixed
 * packet sizes, per-phase load changes, random pauses) while checking
 * the simulator's hard invariants continuously:
 *
 *   - exactly-once delivery with intact payloads (asserted in the
 *     NIC sink on every flit),
 *   - per-flow ordering (deterministic DOR wormhole),
 *   - credit safety (FIFO overflow aborts),
 *   - full drain after quiescing.
 *
 * Exit code 0 = all phases clean. Use it after modifying any router:
 *
 *   nettest arch=nox seconds=10 [width=8 height=8 concentration=1]
 *           [seed=N] [buffer_depth=4]
 *
 * Every phase runs under both scheduling kernels on identical
 * traffic: the activity kernel carries the invariant checkers, the
 * observers and the checkpoints, and an always-tick twin is the
 * reference. Both must drain at the same cycle into identical
 * NetworkStats and state digests; any difference is fatal and names
 * the divergent components, so the soak also fuzzes the activity
 * kernel's quiescence contracts. (Per-cycle digest lockstep stays in
 * the gtest suites: digesting every cycle costs ~70x.) A phase
 * resumed from a checkpoint runs without its twin, because the
 * checkpoint holds only the activity network.
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "noc/flow_table.hpp"
#include "noc/network.hpp"
#include "obs/digest.hpp"
#include "obs/obs_params.hpp"
#include "obs/telemetry.hpp"
#include "routers/factory.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using namespace nox;

/**
 * Where inside one soak phase a checkpoint was taken. The phase's
 * randomized parameters ride along so a resumed process re-enters the
 * exact phase without re-drawing them.
 */
struct PhaseState
{
    int phase = 1;
    double rate = 0.0;
    double dataFrac = 0.0;
    Cycle run = 0;
    int maxFlits = 1;
    Cycle t = 0;        ///< iteration being executed
    std::uint8_t stage = 0; ///< 0=stepping 1=pausing 2=draining
    Cycle pauseEnd = 0; ///< target cycle of the in-progress pause
    Cycle drainEnd = 0; ///< drain deadline (stage 2)
};

/** The RUNR section of a nettest checkpoint: the phase state, then
 *  the soak's random stream. */
template <typename Ar>
void
phaseLayout(Ar &ar, snap::Field<Ar, PhaseState> st,
            snap::Field<Ar, Rng> rng)
{
    snap::tag(ar, snap::fourcc("RUNR"));
    snap::fields(ar, st.phase, st.rate, st.dataFrac, st.run, st.maxFlits,
                 st.t, st.stage);
    snap::check(ar, st.stage <= 2, "phase stage out of range");
    snap::fields(ar, st.pauseEnd, st.drainEnd, rng);
}

class OrderChecker : public SinkListener
{
  public:
    explicit OrderChecker(SinkListener *chain) : chain_(chain) {}

    void
    onFlitDelivered(NodeId node, const FlitDesc &flit,
                    Cycle now) override
    {
        chain_->onFlitDelivered(node, flit, now);
    }

    void
    onPacketCompleted(NodeId node, const FlitDesc &last,
                      Cycle head_inject, Cycle now) override
    {
        const auto key = std::make_pair(last.src, last.dest);
        auto [it, fresh] = lastPacket_.try_emplace(key, last.packet);
        if (!fresh) {
            if (it->second >= last.packet) {
                fatal("ORDER VIOLATION: flow ", last.src, "->",
                      last.dest, " delivered packet ", last.packet,
                      " after ", it->second);
            }
            it->second = last.packet;
        }
        chain_->onPacketCompleted(node, last, head_inject, now);
    }

  private:
    SinkListener *chain_;
    std::map<std::pair<NodeId, NodeId>, PacketId> lastPacket_;
};

/**
 * Exactly-once checker for E2E-transport runs, where retransmission
 * legitimately reorders a flow (so OrderChecker does not apply) but a
 * *duplicate* completion is always a protocol failure. Tracks each
 * flow's delivered flowSeq set as a watermark plus the sparse
 * out-of-order stragglers — O(1) amortised, same shape as the
 * transport's own reorder filter, but independently maintained so the
 * harness does not trust the code under test.
 */
class DupChecker : public SinkListener
{
  public:
    explicit DupChecker(SinkListener *chain) : chain_(chain) {}

    void
    onFlitDelivered(NodeId node, const FlitDesc &flit,
                    Cycle now) override
    {
        chain_->onFlitDelivered(node, flit, now);
    }

    void
    onPacketCompleted(NodeId node, const FlitDesc &last,
                      Cycle head_inject, Cycle now) override
    {
        Flow &f = flows_[flowKey(last.src, last.dest)];
        const std::uint32_t seq = last.flowSeq;
        if (seq < f.watermark || !f.above.insert(seq).second) {
            fatal("DUPLICATE DELIVERY: flow ", last.src, "->",
                  last.dest, " completed flowSeq ", seq,
                  " twice (packet ", last.packet, ", cycle ", now,
                  ")");
        }
        while (f.above.erase(f.watermark) != 0)
            ++f.watermark;
        chain_->onPacketCompleted(node, last, head_inject, now);
    }

  private:
    struct Flow
    {
        std::uint32_t watermark = 0;
        std::unordered_set<std::uint32_t> above;
    };
    SinkListener *chain_;
    std::unordered_map<std::uint64_t, Flow> flows_;
};

/**
 * End-of-phase cross-kernel check: @p twin (always-tick) and @p net
 * (activity), offered identical traffic, must have drained at the
 * same cycle into identical NetworkStats and state digests.
 */
void
checkKernelsAgree(const Network &twin, const Network &net, int phase)
{
    const DigestStride a = twin.computeDigestStride();
    const DigestStride b = net.computeDigestStride();
    const bool stats = identicalStats(twin.stats(), net.stats());
    if (stats && a == b)
        return;
    std::string components;
    for (const std::string &c : divergentComponents(a, b))
        components += " " + c;
    fatal("KERNEL DIVERGENCE in phase ", phase,
          ": activity drained at cycle ", net.now(),
          ", always-tick at cycle ", twin.now(),
          stats ? "" : "; NetworkStats differ",
          "; divergent components:",
          components.empty() ? " none" : components);
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    config.parseArgs(argc, argv);

    const RouterArch arch =
        parseArch(config.getString("arch", "nox").c_str());
    const double seconds = config.getDouble("seconds", 5.0, 0.0);
    const std::uint64_t seed = config.getUint("seed", 12345);
    // phases=N runs exactly N phases instead of a wall-clock budget —
    // the deterministic mode the checkpoint/resume CI check relies on.
    const int maxPhases = config.getInt("phases", 0, 0);
    const Cycle checkpointInterval =
        config.getUint("checkpoint_interval", 0);
    const std::string checkpointFile =
        config.getString("checkpoint_file", "nox-checkpoint.snap");
    const int checkpointKeep =
        config.getInt("checkpoint_keep", 2, 1, snap::kMaxCheckpointKeep);
    const std::string resumePath = config.getString("resume");

    // Mesh, router, fault and observer keys. With fault recovery on
    // (the default) every invariant below must still hold, so the soak
    // fuzzes the CRC/retransmission and watchdog machinery and the
    // observers' hot paths too. Per-phase networks overwrite the
    // export files; the last phase's exports survive.
    NetworkParams params = networkParamsFromConfig(config);
    params.schedulingMode = SchedulingMode::ActivityDriven;
    config.requireAllUsed("nettest");
    // The reference twin: always-tick, observers off.
    NetworkParams twinParams = params;
    twinParams.schedulingMode = SchedulingMode::AlwaysTick;
    twinParams.obs = ObsParams{};

    Rng rng(seed);
    std::uint64_t total_packets = 0;
    std::uint64_t total_cycles = 0;
    std::uint64_t total_faults = 0;
    std::uint64_t total_retransmissions = 0;
    std::uint64_t total_lost_hard = 0;
    std::uint64_t total_rejected = 0;
    std::uint64_t total_rebuilds = 0;
    std::uint64_t total_e2e_retx = 0;
    std::uint64_t total_dup_suppressed = 0;
    std::uint64_t total_delivery_failures = 0;
    std::uint64_t total_heals = 0;
    LatencyBreakdown totalBreakdown; // provenance=true runs only
    int phase = 0;

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(seconds);

    // Execute (or, after --resume, finish) one soak phase on @p net,
    // offering the same traffic to @p twin when there is one.
    const auto runOnePhase = [&](Network *net, Network *twin,
                                 PhaseState &st, bool resumed) {
        const int phase = st.phase;
        const auto phaseWall0 = std::chrono::steady_clock::now();
        OrderChecker checker(net);
        DupChecker dupChecker(net);
        // Hard (fail-stop) faults legitimately break per-flow FIFO
        // order: a mid-run table rebuild moves a flow to a new path
        // while older packets finish on the old one. The network's
        // own flowReorders counter tracks those; the strict checker
        // only applies to fault-free topologies. E2E retransmission
        // reorders flows the same way, so transport runs swap in the
        // duplicate-delivery checker instead — exactly-once is the
        // invariant there, not FIFO. (A resumed phase re-attaches
        // either checker cold: checked from its first post-resume
        // delivery onward.)
        const bool hard = params.faults.anyHard();
        if (params.faults.e2eTransport) {
            for (NodeId n = 0; n < net->numNodes(); ++n)
                net->nic(n).setListener(&dupChecker);
        } else if (!hard) {
            for (NodeId n = 0; n < net->numNodes(); ++n)
                net->nic(n).setListener(&checker);
        }
        const double rate = st.rate;
        const int max_flits = st.maxFlits;

        // Random pauses exercise drain/refill transients.
        const auto maybePause = [&]() {
            if (rng.nextBernoulli(0.001)) {
                const Cycle pause = rng.nextBounded(200);
                st.stage = 1;
                st.pauseEnd = net->now() + pause;
                net->run(pause);
                if (twin)
                    twin->run(pause);
            }
        };

        if (checkpointInterval > 0) {
            net->installCheckpoint(
                checkpointInterval, [&](Network &n) {
                    snap::SnapshotFile image =
                        snap::captureNetwork(n, "nettest");
                    snap::Writer rw;
                    phaseLayout(rw, st, rng);
                    image.sections.push_back(
                        {snap::kSectionRunner, rw.take()});
                    snap::writeSnapshotFileAtomic(
                        checkpointFile,
                        snap::encodeSnapshotFile(image),
                        checkpointKeep);
                });
        }

        Cycle t0 = 0;
        if (resumed && st.stage != 2) {
            // Finish the interrupted iteration. Its injections are
            // part of the restored network state; what remains is the
            // post-step pause draw (stage 0) or the tail of an
            // in-progress pause (stage 1).
            if (st.stage == 1) {
                if (net->now() < st.pauseEnd)
                    net->run(st.pauseEnd - net->now());
            } else {
                maybePause();
            }
            t0 = st.t + 1;
        }
        if (!resumed || st.stage != 2) {
            for (Cycle t = t0; t < st.run; ++t) {
                st.t = t;
                st.stage = 0;
                for (NodeId s = 0; s < net->numNodes(); ++s) {
                    if (!rng.nextBernoulli(rate))
                        continue;
                    NodeId d = s;
                    while (d == s) {
                        d = static_cast<NodeId>(rng.nextBounded(
                            static_cast<std::uint64_t>(
                                net->numNodes())));
                    }
                    const int flits =
                        rng.nextBernoulli(st.dataFrac)
                            ? 2 + static_cast<int>(rng.nextBounded(
                                  static_cast<std::uint64_t>(
                                      max_flits - 1)))
                            : 1;
                    net->injectPacket(s, d, flits, net->now(),
                                      TrafficClass::Synthetic);
                    if (twin) {
                        twin->injectPacket(s, d, flits, twin->now(),
                                           TrafficClass::Synthetic);
                    }
                }
                net->step();
                if (twin)
                    twin->step();
                maybePause();
            }
            st.stage = 2;
            st.drainEnd = net->now() + 500000;
        }

        const Cycle budget = net->now() < st.drainEnd
                                 ? st.drainEnd - net->now()
                                 : 0;
        if (!net->drain(budget)) {
            fatal("DRAIN FAILURE in phase ", phase, " (arch ",
                  archName(arch), ", rate ", rate, ", max_flits ",
                  max_flits, ", seed ", seed, "): ",
                  net->lastDrainReport().summary());
        }
        if (twin) {
            twin->drain(budget);
            checkKernelsAgree(*twin, *net, phase);
        }
        // Conservation under hard faults: every injected packet is
        // either delivered, explicitly written off as lost to a
        // fail-stop fault, or (transport runs) abandoned after
        // exhausting its E2E retry budget — never silently dropped
        // and never delivered twice (ejected counts logical packets).
        if (net->stats().packetsEjected +
                net->stats().faults.packetsLostHard +
                net->stats().faults.deliveryFailures !=
            net->stats().packetsInjected) {
            fatal("CONSERVATION FAILURE in phase ", phase, ": ",
                  net->stats().packetsInjected, " injected != ",
                  net->stats().packetsEjected, " ejected + ",
                  net->stats().faults.packetsLostHard, " lost-hard + ",
                  net->stats().faults.deliveryFailures,
                  " delivery-failures");
        }
        // With the transport on, lost-hard must stay zero: every hard
        // casualty is recoverable from the source window by design.
        if (params.faults.e2eTransport &&
            net->stats().faults.packetsLostHard != 0) {
            fatal("WRITE-OFF UNDER TRANSPORT in phase ", phase, ": ",
                  net->stats().faults.packetsLostHard,
                  " packet(s) written off despite the E2E window");
        }
        // Pure churn (every kill is healed, no permanent faults) with
        // the default-sized retry budget must deliver everything:
        // timeout * retries far exceeds the heal latency, so a single
        // delivery failure means the transport gave up too early.
        if (params.faults.e2eTransport && params.faults.churnWaves > 0 &&
            params.faults.hardLinkFaults == 0 &&
            params.faults.hardRouterFaults == 0 &&
            net->stats().faults.deliveryFailures != 0) {
            fatal("DELIVERY FAILURE UNDER CHURN in phase ", phase,
                  ": ", net->stats().faults.deliveryFailures,
                  " packet(s) abandoned although every fault heals");
        }
        if (params.faults.enabled && params.faults.protect &&
            net->stats().faults.corruptedEscapes != 0) {
            fatal("CORRUPTION ESCAPE in phase ", phase, ": ",
                  net->stats().faults.corruptedEscapes,
                  " corrupted payload(s) delivered despite recovery");
        }
        net->finishObservability();
        // Latency-provenance invariants (provenance=true runs): every
        // delivered packet's components summed exactly to its latency,
        // no span leaked past a full drain, and the aggregate still
        // conserves.
        if (const LatencyProvenance *prov = net->provenance()) {
            if (prov->conservationViolations() != 0) {
                fatal("PROVENANCE CONSERVATION FAILURE in phase ",
                      phase, ": ", prov->conservationViolations(),
                      " packet(s) whose latency components do not sum "
                      "to their measured latency");
            }
            if (prov->openSpans() != 0) {
                fatal("PROVENANCE LEAK in phase ", phase, ": ",
                      prov->openSpans(),
                      " span(s) still open after a full drain");
            }
            const LatencyBreakdown &b = prov->total();
            if (b.componentsSum() != b.totalCycles) {
                fatal("PROVENANCE AGGREGATE MISMATCH in phase ", phase,
                      ": components sum to ", b.componentsSum(),
                      " but measured latency totals ", b.totalCycles);
            }
            totalBreakdown.packets += b.packets;
            totalBreakdown.totalCycles += b.totalCycles;
            for (std::size_t i = 0; i < kNumLatencyComponents; ++i)
                totalBreakdown.comp[i] += b.comp[i];
        }
        total_faults += net->stats().faults.faultsInjected;
        total_retransmissions +=
            net->stats().faults.retransmissions;
        total_lost_hard += net->stats().faults.packetsLostHard;
        total_rejected += net->stats().faults.unreachableRejected;
        total_rebuilds += net->stats().faults.tableRebuilds;
        total_e2e_retx += net->stats().faults.e2eRetransmits;
        total_dup_suppressed += net->stats().faults.dupSuppressed;
        total_delivery_failures +=
            net->stats().faults.deliveryFailures;
        total_heals += net->stats().faults.linkHeals +
                       net->stats().faults.routerHeals;
        total_packets += net->stats().packetsEjected;
        total_cycles += net->now();
        // Percentile sanity: the histogram must cover exactly the
        // measured packets and its quantiles must be monotone — the
        // conservation-style contract for the percentile columns.
        const Histogram &lat = net->stats().latencyHist;
        if (lat.count() != net->stats().latency.count()) {
            fatal("HISTOGRAM COUNT MISMATCH in phase ", phase, ": ",
                  lat.count(), " histogram samples != ",
                  net->stats().latency.count(), " measured packets");
        }
        const double p50 = lat.percentile(50);
        const double p95 = lat.percentile(95);
        const double p99 = lat.percentile(99);
        if (!(p50 <= p95 && p95 <= p99)) {
            fatal("PERCENTILE ORDER VIOLATION in phase ", phase,
                  ": p50=", p50, " p95=", p95, " p99=", p99);
        }
        std::cout << "phase " << phase << ": rate="
                  << static_cast<int>(rate * 1000) << "m flits<="
                  << max_flits << " cycles=" << net->now()
                  << " packets=" << net->stats().packetsEjected
                  << " lat p50/p95/p99=" << p50 << "/" << p95 << "/"
                  << p99 << " widen=" << lat.widenings()
                  << " ovf=" << lat.overflowCount() << " ok\n";
        if (params.obs.telemetry.enabled) {
            // One heartbeat-formatted summary per phase: same line
            // renderer as noxsim's --progress stream, fed from the
            // phase's own wall clock and post-drain counters.
            TelemetryRecord rec;
            rec.sample = net->telemetrySample();
            rec.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - phaseWall0)
                    .count();
            if (rec.wallSeconds > 0.0) {
                rec.cumCyclesPerSec =
                    static_cast<double>(net->now()) /
                    rec.wallSeconds;
                rec.instCyclesPerSec = rec.cumCyclesPerSec;
            }
            rec.peakRssKb = RunTelemetry::peakRssKb();
            std::cout << "  telemetry: "
                      << RunTelemetry::formatLine(rec, 0) << "\n";
        }
    };

    if (!resumePath.empty()) {
        // Finish the interrupted phase from the snapshot, then report.
        // The RNG rides in the snapshot's RUNR section, so the resumed
        // phase replays the exact traffic the uninterrupted run would
        // have offered.
        auto net = makeNetwork(params, arch);
        PhaseState st;
        try {
            const snap::SnapshotFile file =
                snap::loadSnapshotFile(resumePath);
            snap::restoreNetwork(*net, file);
            const snap::Section &sec =
                file.require(snap::kSectionRunner);
            snap::Reader r(sec.payload.data(), sec.payload.size());
            phaseLayout(r, st, rng);
            r.expectEnd();
        } catch (const snap::SnapshotError &e) {
            fatal("cannot resume from '", resumePath, "': ",
                  e.what());
        }
        phase = st.phase;
        runOnePhase(net.get(), nullptr, st, true);
    } else {
        while (maxPhases > 0
                   ? phase < maxPhases
                   : std::chrono::steady_clock::now() < deadline) {
            ++phase;
            auto net = makeNetwork(params, arch);
            auto twin = makeNetwork(twinParams, arch);
            // Randomized phase parameters, recorded in PhaseState so
            // a checkpointed phase resumes without re-drawing them.
            PhaseState st;
            st.phase = phase;
            st.rate = 0.01 + rng.nextDouble() * 0.22;
            st.dataFrac = rng.nextDouble() * 0.5;
            st.run = 500 + rng.nextBounded(3000);
            st.maxFlits =
                2 + static_cast<int>(rng.nextBounded(10));
            if (params.faults.churnWaves > 0) {
                // Churn mode: the phase must span the whole seeded
                // kill+heal schedule (default phase lengths end long
                // before churn_start), plus a margin so the last
                // wave's heals land under live traffic.
                const FaultParams &f = params.faults;
                st.run = std::max<Cycle>(
                    st.run,
                    f.churnStart +
                        static_cast<Cycle>(f.churnWaves) *
                            f.churnPeriod +
                        2000);
                // The zero-delivery-failure invariant only holds
                // below saturation: overloaded source queues delay a
                // packet past timeout * retry_limit and the bounded
                // retry budget then abandons it by design (and every
                // timeout injects another copy, amplifying the
                // overload). Keep the offered load comfortably under
                // the 2/k uniform-traffic capacity so queueing delay
                // is bounded by the heal latency, not the backlog.
                st.rate = 0.005 + rng.nextDouble() * 0.025;
            }
            runOnePhase(net.get(), twin.get(), st, false);
        }
    }

    std::cout << "SOAK PASSED: " << archName(arch) << ", " << phase
              << " phases, " << total_packets << " packets over "
              << total_cycles << " cycles, every delivery checked";
    if (params.faults.enabled) {
        std::cout << ", " << total_faults << " faults injected, "
                  << total_retransmissions << " retransmissions";
        if (params.faults.anyHard()) {
            std::cout << ", " << total_rebuilds
                      << " table rebuilds, " << total_lost_hard
                      << " packets written off, " << total_rejected
                      << " rejected unreachable";
        }
        if (params.faults.e2eTransport) {
            std::cout << ", " << total_e2e_retx
                      << " e2e retransmits, " << total_dup_suppressed
                      << " duplicates suppressed, "
                      << total_delivery_failures
                      << " delivery failures";
        }
        if (params.faults.churnWaves > 0)
            std::cout << ", " << total_heals << " heals applied";
    }
    std::cout << "\n";
    if (totalBreakdown.packets > 0) {
        std::cout << "latency attribution over "
                  << totalBreakdown.packets << " measured packets ("
                  << totalBreakdown.totalCycles << " cycles):\n";
        for (std::size_t i = 0; i < kNumLatencyComponents; ++i) {
            const auto c = static_cast<LatencyComponent>(i);
            std::cout << "  " << latencyComponentName(c) << ": "
                      << totalBreakdown.comp[i] << "\n";
        }
    }
    return 0;
}
