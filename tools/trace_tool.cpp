/**
 * @file
 * trace_tool — inspect, generate, filter and summarize packet traces,
 * and analyze flight-recorder dumps.
 *
 *   trace_tool gen workload=barnes out=barnes.trace [horizon_ns=N]
 *   trace_tool info in=barnes.trace
 *   trace_tool filter in=a.trace out=b.trace [network=0] [src=N]
 *                     [dst=N] [from_ns=X] [to_ns=Y]
 *   trace_tool histogram in=a.trace [bins=20]
 *   trace_tool analyze in=flight.jsonl [topk=10]
 *   trace_tool snapshot-info in=checkpoint.snap
 *   trace_tool diff a=ledgerA.jsonl b=ledgerB.jsonl
 *   trace_tool bisect a=ledgerA.jsonl b=ledgerB.jsonl
 *                     snap_a=ckptA.snap snap_b=ckptB.snap
 *                     <synthetic key=value...> [a_<key>=V] [b_<key>=V]
 *
 * `analyze` reads a flight-recorder JSONL dump (produced on a drain
 * timeout, an age-limit alarm, or `trace_flight_on_exit=true`),
 * reconstructs per-packet timelines offline, cross-checks each
 * reconstructed latency against the latency the simulator reported
 * online (exits nonzero on any mismatch), and prints the top-K
 * slowest packets with their critical hop and dominant stall cause.
 *
 * `snapshot-info` frame-validates a checkpoint written by
 * noxsim/nettest (magic, version, per-section CRC-32C) and prints its
 * identity card — producing tool, capture cycle, configuration
 * fingerprint, section inventory — without constructing a simulator.
 * Exits nonzero with a structured reason on any corruption.
 *
 * `diff` compares two digest ledgers (digest_file= runs) stride by
 * stride and reports the first divergent stride's cycle plus the
 * exact set of differing components. Exit 0 = identical, 1 =
 * diverged, fatal on unreadable/incomparable ledgers.
 *
 * `bisect` narrows a coarse-stride ledger divergence to the exact
 * cycle and component: it restores both runs from their last agreeing
 * checkpoints and re-steps them in lockstep, capturing a digest every
 * cycle (digest_interval=1 in effect) until the first differing
 * stride. The shared synthetic keys (arch, pattern, rate_mbps, seed,
 * warmup, measure, ...) are exactly noxsim's; per-side differences
 * (e.g. the scheduling kernel or a deliberate perturb_cycle) are
 * expressed with `a_`/`b_`-prefixed overrides. Checkpoint, resume and
 * digest-ledger keys are neutralized in the re-run so a bisection can
 * never clobber the artifacts it is reading. When the re-run config
 * carries a flight recorder (trace=true trace_flight_file=...), the
 * ring is dumped with reason "digest-divergence" at the divergent
 * cycle, implicating the differing components.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "coherence/trace_generator.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/sim_runner.hpp"
#include "obs/digest.hpp"
#include "obs/flight_analysis.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_recorder.hpp"
#include "snapshot/file.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace nox;

int
cmdGen(const Config &config)
{
    const Trace trace = traceFromConfig(config);
    const std::string out = config.getString("out");
    if (out.empty())
        fatal("gen requires out=<path>");
    writeTraceFile(out, trace);
    std::cout << "wrote " << trace.records.size() << " records ("
              << trace.durationNs << " ns) to " << out << '\n';
    return 0;
}

int
cmdInfo(const Config &config)
{
    const Trace trace = readTraceFile(config.getString("in"));
    std::uint64_t ctrl = 0, data = 0, bytes = 0;
    SampleStats sizes;
    for (const auto &r : trace.records) {
        (r.sizeBytes <= 8 ? ctrl : data) += 1;
        bytes += r.sizeBytes;
        sizes.add(static_cast<double>(r.sizeBytes));
    }
    Table t({"metric", "value"});
    t.addRow({"records", std::to_string(trace.records.size())});
    t.addRow({"duration_ns", Table::num(trace.durationNs, 1)});
    t.addRow({"control packets", std::to_string(ctrl)});
    t.addRow({"data packets", std::to_string(data)});
    t.addRow({"bytes", std::to_string(bytes)});
    t.addRow({"mean packet bytes", Table::num(sizes.mean(), 2)});
    t.addRow({"request-net records",
              std::to_string(trace.forNetwork(0).size())});
    t.addRow({"reply-net records",
              std::to_string(trace.forNetwork(1).size())});
    for (int net : {0, 1}) {
        t.addRow({"net " + std::to_string(net) + " GB/s/node",
                  Table::num(trace.bytesPerNsPerNode(64, net), 3)});
    }
    t.print(std::cout);
    return 0;
}

int
cmdFilter(const Config &config)
{
    const Trace in = readTraceFile(config.getString("in"));
    Trace out;
    out.name = in.name + "-filtered";
    out.durationNs = in.durationNs;
    const double from = config.getDouble("from_ns", 0.0);
    const double to = config.getDouble("to_ns", 1e300);
    for (const auto &r : in.records) {
        if (r.timeNs < from || r.timeNs > to)
            continue;
        if (config.has("network") &&
            r.network != config.getUint("network"))
            continue;
        if (config.has("src") &&
            r.src != config.getInt("src", NodeId{0}))
            continue;
        if (config.has("dst") &&
            r.dst != config.getInt("dst", NodeId{0}))
            continue;
        out.records.push_back(r);
    }
    writeTraceFile(config.getString("out"), out);
    std::cout << "kept " << out.records.size() << " of "
              << in.records.size() << " records\n";
    return 0;
}

int
cmdHistogram(const Config &config)
{
    const Trace trace = readTraceFile(config.getString("in"));
    // One output line per bin.
    const int bins = config.getInt("bins", 20, 1, 10000);
    if (trace.records.empty() || trace.durationNs <= 0.0) {
        std::cout << "empty trace\n";
        return 0;
    }
    std::vector<std::uint64_t> counts(
        static_cast<std::size_t>(bins), 0);
    for (const auto &r : trace.records) {
        auto b = static_cast<std::size_t>(
            r.timeNs / trace.durationNs * bins);
        if (b >= counts.size())
            b = counts.size() - 1;
        counts[b] += 1;
    }
    std::uint64_t peak = 1;
    for (auto c : counts)
        peak = std::max(peak, c);
    std::cout << "packets over time (" << bins << " bins of "
              << Table::num(trace.durationNs / bins, 0) << " ns):\n";
    for (int b = 0; b < bins; ++b) {
        const auto c = counts[static_cast<std::size_t>(b)];
        const int stars =
            static_cast<int>(60.0 * static_cast<double>(c) /
                             static_cast<double>(peak));
        std::cout << Table::num(b * trace.durationNs / bins, 0)
                  << "\t" << c << "\t" << std::string(
                         static_cast<std::size_t>(stars), '*')
                  << '\n';
    }
    return 0;
}

int
cmdAnalyze(const Config &config)
{
    FlightDump dump;
    std::string error;
    if (!loadFlightDump(config.getString("in"), dump, error))
        fatal("analyze: ", error);

    const std::vector<PacketTimeline> timelines = buildTimelines(dump);
    std::uint64_t complete = 0, partial = 0, mismatches = 0;
    for (const PacketTimeline &t : timelines) {
        if (t.haveCreate && t.haveDone)
            ++complete;
        else
            ++partial;
        if (!t.consistent()) {
            ++mismatches;
            warn("packet ", t.packet, ": reconstructed latency ",
                 t.latency(), " != online-reported ",
                 t.reportedLatency);
        }
    }

    Table t({"metric", "value"});
    t.addRow({"dump reason", dump.reason});
    t.addRow({"dump cycle", std::to_string(dump.dumpCycle)});
    t.addRow({"events", std::to_string(dump.events.size())});
    t.addRow({"cycles covered",
              std::to_string(dump.firstCycle) + ".." +
                  std::to_string(dump.lastCycle)});
    t.addRow({"packets seen", std::to_string(timelines.size())});
    t.addRow({"complete timelines", std::to_string(complete)});
    t.addRow({"partial timelines", std::to_string(partial)});
    t.addRow({"latency mismatches", std::to_string(mismatches)});
    t.print(std::cout);

    const std::size_t k = config.getUint("topk", 10);
    const std::vector<SlowPacket> slow =
        slowestPackets(dump, timelines, k);
    if (!slow.empty()) {
        std::cout << "\nslowest packets (complete timelines only):\n";
        Table s({"packet", "src", "dst", "latency", "stall cycles",
                 "stall at", "e2e retx", "dominant cause"});
        for (const SlowPacket &p : slow) {
            s.addRow({std::to_string(p.packet),
                      std::to_string(p.src), std::to_string(p.dest),
                      std::to_string(p.latency),
                      std::to_string(p.stallEnd - p.stallStart),
                      std::string(p.stallNic ? "nic " : "router ") +
                          std::to_string(p.stallNode),
                      std::to_string(p.e2eRetransmits), p.cause});
        }
        s.print(std::cout);
    }
    return mismatches == 0 ? 0 : 1;
}

int
cmdSnapshotInfo(const Config &config)
{
    const std::string path = config.getString("in");
    if (path.empty())
        fatal("snapshot-info requires in=<snapshot>");
    try {
        const std::vector<std::uint8_t> bytes =
            snap::readFileBytes(path);
        const snap::SnapshotFile file =
            snap::decodeSnapshotFile(bytes.data(), bytes.size());

        Table t({"field", "value"});
        t.addRow({"file", path});
        t.addRow({"bytes", std::to_string(bytes.size())});
        t.addRow({"version", std::to_string(file.version)});
        t.addRow({"sections",
                  std::to_string(file.sections.size())});
        if (const snap::Section *m =
                file.find(snap::kSectionMeta)) {
            snap::Reader r(m->payload.data(), m->payload.size());
            snap::SnapshotMeta meta;
            snap::io(r, meta);
            r.expectEnd();
            t.addRow({"tool", meta.tool});
            t.addRow({"cycle", std::to_string(meta.cycle)});
            t.addRow({"fingerprint", meta.fingerprint});
        }
        t.print(std::cout);

        Table s({"section", "payload bytes"});
        for (const snap::Section &sec : file.sections)
            s.addRow({snap::fourccName(sec.tag),
                      std::to_string(sec.payload.size())});
        std::cout << '\n';
        s.print(std::cout);
        return 0;
    } catch (const snap::SnapshotError &e) {
        std::cerr << "snapshot-info: invalid snapshot '" << path
                  << "': " << e.what() << '\n';
        return 1;
    }
}

// ---- profile: render a self-profiling JSONL export ----------------

int
cmdProfile(const Config &config)
{
    const std::string path = config.getString("in");
    if (path.empty())
        fatal("profile requires in=<profile.jsonl>");
    ProfileFile p;
    std::string error;
    if (!loadProfile(path, p, error))
        fatal("profile: ", error);
    const std::vector<ProfileFile::Router> &routers = p.routers;
    const double totalNs = static_cast<double>(p.totalNs);

    Table h({"field", "value"});
    h.addRow({"arch", p.meta.arch});
    h.addRow({"scheduling", p.meta.sched});
    h.addRow({"mesh", std::to_string(p.meta.width) + "x" +
                          std::to_string(p.meta.height)});
    h.addRow({"steps", std::to_string(p.steps)});
    h.addRow({"stepped wall", Table::num(totalNs * 1e-9, 4) + " s"});
    h.addRow({"scoped wall",
              Table::num(static_cast<double>(p.phaseNsSum) * 1e-9, 4) +
                  " s"});
    h.addRow({"coverage", Table::num(p.coverage, 4)});
    h.print(std::cout);

    if (!p.phases.empty()) {
        std::cout << "\nhost cost per phase (share of stepped "
                     "wall time):\n";
        Table t({"phase", "seconds", "share", "enters", "ns/enter"});
        for (const ProfileFile::Phase &ph : p.phases) {
            const auto ns = static_cast<double>(ph.totals.ns);
            const auto enters = static_cast<double>(ph.totals.enters);
            t.addRow({ph.name, Table::num(ns * 1e-9, 4),
                      totalNs > 0
                          ? Table::num(100.0 * ns / totalNs, 1) + "%"
                          : "-",
                      std::to_string(ph.totals.enters),
                      enters > 0 ? Table::num(ns / enters, 0) : "-"});
        }
        t.print(std::cout);
    }

    if (!routers.empty()) {
        // "Hottest" = most flits moved; under activity-driven
        // scheduling the evals column additionally shows how often
        // the scheduler actually woke each router.
        const std::size_t k = config.getUint("topk", 10);
        std::vector<ProfileFile::Router> sorted = routers;
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      if (a.work.flitsMoved != b.work.flitsMoved)
                          return a.work.flitsMoved > b.work.flitsMoved;
                      return a.id < b.id;
                  });
        if (sorted.size() > k)
            sorted.resize(k);
        std::cout << "\ntop " << sorted.size()
                  << " hottest routers (by flits moved):\n";
        Table t({"router", "evals", "flits", "arb rounds"});
        for (const ProfileFile::Router &r : sorted) {
            t.addRow({std::to_string(r.id),
                      std::to_string(r.work.evaluations),
                      std::to_string(r.work.flitsMoved),
                      std::to_string(r.work.arbRounds)});
        }
        t.print(std::cout);
    }

    // Imbalance: report the export's own rows, then optionally
    // recompute over a caller-chosen shard count (shards=N).
    if (!p.imbalances.empty()) {
        std::cout << "\nload imbalance (max shard / mean shard; "
                     "1.0 = balanced):\n";
        Table t({"by", "shards", "index"});
        for (const ProfileFile::Imbalance &r : p.imbalances) {
            t.addRow({r.by, std::to_string(r.shards),
                      Table::num(r.index, 4)});
        }
        t.print(std::cout);
    }
    const std::size_t meshRouters =
        static_cast<std::size_t>(p.meta.width) *
        static_cast<std::size_t>(p.meta.height);
    if (config.has("shards") && !routers.empty() &&
        routers.size() == meshRouters) {
        const int shards = config.getInt(
            "shards", 4, 1, static_cast<int>(meshRouters));
        std::vector<ProfileFile::Router> byId = routers;
        std::sort(byId.begin(), byId.end(),
                  [](const auto &a, const auto &b) {
                      return a.id < b.id;
                  });
        std::vector<std::uint64_t> evals, flits;
        for (const ProfileFile::Router &r : byId) {
            evals.push_back(r.work.evaluations);
            flits.push_back(r.work.flitsMoved);
        }
        const std::vector<int> shardOf = rowStripePartition(
            p.meta.width, p.meta.height, shards);
        Table t({"by", "shards", "index"});
        t.addRow({"evals", std::to_string(shards),
                  Table::num(loadImbalance(evals, shardOf, shards),
                             4)});
        t.addRow({"flits", std::to_string(shards),
                  Table::num(loadImbalance(flits, shardOf, shards),
                             4)});
        std::cout << "\nrecomputed over " << shards
                  << " row stripes:\n";
        t.print(std::cout);
    }
    return 0;
}

std::string
joinComponents(const std::vector<std::string> &components)
{
    std::string joined;
    for (const auto &c : components) {
        if (!joined.empty())
            joined += ",";
        joined += c;
    }
    return joined;
}

int
cmdDiff(const Config &config)
{
    const std::string pathA = config.getString("a");
    const std::string pathB = config.getString("b");
    if (pathA.empty() || pathB.empty())
        fatal("diff requires a=<ledger.jsonl> b=<ledger.jsonl>");

    LedgerFile a, b;
    std::string err;
    if (!loadDigestLedger(pathA, &a, &err))
        fatal("diff: ", err);
    if (!loadDigestLedger(pathB, &b, &err))
        fatal("diff: ", err);

    const DigestDivergence d = compareLedgers(a, b);
    if (!d.comparable)
        fatal("diff: ledgers are not comparable: ", d.error);

    Table t({"key", "value"});
    t.addRow({"interval", std::to_string(a.interval)});
    t.addRow({"strides_a", std::to_string(a.strides.size())});
    t.addRow({"strides_b", std::to_string(b.strides.size())});
    t.addRow({"strides_compared",
              std::to_string(d.stridesCompared)});
    t.addRow({"diverged", d.diverged ? "1" : "0"});
    if (d.diverged) {
        t.addRow({"first_divergent_stride_cycle",
                  std::to_string(d.cycle)});
        t.addRow({"last_agreeing_stride_cycle",
                  std::to_string(d.lastAgreeCycle)});
        t.addRow({"components", joinComponents(d.components)});
    }
    t.print(std::cout);
    if (d.diverged) {
        std::cout << "divergence lies in ("
                  << (d.lastAgreeCycle < 0
                          ? std::string("start")
                          : std::to_string(d.lastAgreeCycle))
                  << ", " << d.cycle
                  << "]; run `trace_tool bisect` with the last "
                     "agreeing checkpoints to pin the exact cycle\n";
    }
    return d.diverged ? 1 : 0;
}

/** Split the bisect command line into one Config per side: shared
 *  synthetic keys go to both, `a_`/`b_`-prefixed keys override their
 *  side, and bisect's own keys (a=, b=, snap_a=, snap_b=) go to
 *  neither. */
Config
sideConfig(const Config &config, const std::string &prefix,
           const std::string &otherPrefix)
{
    Config side;
    for (const auto &kv : config.items()) {
        const std::string &key = kv.first;
        if (key == "a" || key == "b" || key == "snap_a" ||
            key == "snap_b")
            continue;
        if (key.compare(0, otherPrefix.size(), otherPrefix) == 0)
            continue;
        if (key.compare(0, prefix.size(), prefix) == 0) {
            side.set(key.substr(prefix.size()), kv.second);
            continue;
        }
        side.set(key, kv.second);
    }
    return side;
}

/** Parse one side's synthetic config, neutralizing every knob that
 *  would let the re-run write over the artifacts it reads (its own
 *  checkpoints and ledgers) or skip ahead (resume). */
SyntheticConfig
bisectSideConfig(const Config &config, const char *label)
{
    SyntheticConfig c = parseSyntheticConfig(config);
    config.requireAllUsed(label);
    c.checkpointInterval = 0;
    c.resumePath.clear();
    c.net.obs.digest.enabled = false;
    c.net.obs.digest.jsonlPath.clear();
    return c;
}

int
cmdBisect(const Config &config)
{
    const std::string pathA = config.getString("a");
    const std::string pathB = config.getString("b");
    const std::string snapA = config.getString("snap_a");
    const std::string snapB = config.getString("snap_b");
    if (pathA.empty() || pathB.empty() || snapA.empty() ||
        snapB.empty())
        fatal("bisect requires a=<ledger> b=<ledger> "
              "snap_a=<ckpt.snap> snap_b=<ckpt.snap>");

    LedgerFile la, lb;
    std::string err;
    if (!loadDigestLedger(pathA, &la, &err))
        fatal("bisect: ", err);
    if (!loadDigestLedger(pathB, &lb, &err))
        fatal("bisect: ", err);
    const DigestDivergence coarse = compareLedgers(la, lb);
    if (!coarse.comparable)
        fatal("bisect: ledgers are not comparable: ", coarse.error);
    if (!coarse.diverged) {
        std::cout << "ledgers agree over " << coarse.stridesCompared
                  << " strides; nothing to bisect\n";
        return 0;
    }

    const SyntheticConfig ca =
        bisectSideConfig(sideConfig(config, "a_", "b_"),
                         "trace_tool bisect (side a)");
    const SyntheticConfig cb =
        bisectSideConfig(sideConfig(config, "b_", "a_"),
                         "trace_tool bisect (side b)");
    if (ca.warmupCycles != cb.warmupCycles ||
        ca.measureCycles != cb.measureCycles)
        fatal("bisect: the two sides disagree on the measurement "
              "window (warmup/measure) — comparing their "
              "trajectories is meaningless");

    SyntheticNet builtA = buildSyntheticNetwork(ca);
    SyntheticNet builtB = buildSyntheticNetwork(cb);
    Network &netA = *builtA.net;
    Network &netB = *builtB.net;
    try {
        snap::restoreNetwork(netA, snap::loadSnapshotFile(snapA));
    } catch (const snap::SnapshotError &e) {
        fatal("bisect: cannot restore side a from '", snapA,
              "': ", e.what());
    }
    try {
        snap::restoreNetwork(netB, snap::loadSnapshotFile(snapB));
    } catch (const snap::SnapshotError &e) {
        fatal("bisect: cannot restore side b from '", snapB,
              "': ", e.what());
    }
    if (netA.now() != netB.now())
        fatal("bisect: checkpoints are from different cycles (a=",
              netA.now(), ", b=", netB.now(),
              ") — pass the same-interval checkpoints bracketing "
              "the divergence");
    const Cycle start = netA.now();
    if (start >= coarse.cycle)
        fatal("bisect: checkpoints are at cycle ", start,
              ", at or past the first divergent stride (",
              coarse.cycle,
              ") — pass the last checkpoints that still agree");

    Table t({"key", "value"});
    t.addRow({"ledger_interval", std::to_string(la.interval)});
    t.addRow({"ledger_divergent_stride",
              std::to_string(coarse.cycle)});
    t.addRow({"ledger_last_agree",
              coarse.lastAgreeCycle < 0
                  ? std::string("none")
                  : std::to_string(coarse.lastAgreeCycle)});
    t.addRow({"checkpoint_cycle", std::to_string(start)});

    // Lockstep replay: one step at a time on both sides, a full
    // digest capture after every step — digest_interval=1 in effect,
    // without ever writing a ledger.
    snap::Writer scratchA, scratchB;
    DigestStride sa = netA.computeDigestStride(scratchA);
    DigestStride sb = netB.computeDigestStride(scratchB);
    if (sa != sb) {
        // The "agreeing" checkpoints already differ — the coarse
        // ledger stride lied only by granularity; report here.
        t.addRow({"diverged", "1"});
        t.addRow({"first_divergent_cycle", std::to_string(start)});
        t.addRow({"components",
                  joinComponents(divergentComponents(sa, sb))});
        t.print(std::cout);
        std::cout << "the checkpoints themselves differ — rerun "
                     "with earlier checkpoints to see the first "
                     "divergent cycle\n";
        return 0;
    }

    // Replicate runSynthetic's phase schedule: sources off once the
    // measurement window closes, then the drain tail.
    const Cycle m1 = ca.warmupCycles + ca.measureCycles;
    if (start >= m1) {
        netA.setSourcesEnabled(false);
        netB.setSourcesEnabled(false);
    }
    // The divergence is certain by the ledger's divergent stride;
    // pad one interval in case that stride is the last one captured.
    const Cycle limit = coarse.cycle + la.interval;
    bool found = false;
    while (netA.now() < limit) {
        netA.step();
        netB.step();
        sa = netA.computeDigestStride(scratchA);
        sb = netB.computeDigestStride(scratchB);
        if (sa != sb) {
            found = true;
            break;
        }
        if (netA.now() == m1) {
            netA.setSourcesEnabled(false);
            netB.setSourcesEnabled(false);
        }
    }

    if (!found) {
        t.addRow({"diverged", "0"});
        t.print(std::cout);
        warn("bisect: replay did not reproduce the divergence by "
             "cycle ",
             limit,
             " — the runs differ in a way the re-run configs do "
             "not capture (check a_/b_ overrides)");
        return 1;
    }

    const std::vector<std::string> components =
        divergentComponents(sa, sb);
    t.addRow({"diverged", "1"});
    t.addRow({"first_divergent_cycle",
              std::to_string(netA.now())});
    t.addRow({"last_agreeing_cycle",
              std::to_string(netA.now() - 1)});
    t.addRow({"components", joinComponents(components)});

    // Latch a flight-recorder dump at the divergent cycle on each
    // side that carries a tracer, implicating the differing routers
    // and NICs. With the shared trace keys both sides inherit the
    // same flight path; side b then skips its dump rather than
    // silently overwriting side a's (set b_trace_flight_file= to
    // capture both rings).
    std::vector<NodeId> implicated;
    for (const auto &c : components) {
        const std::size_t colon = c.find(':');
        if (colon == std::string::npos)
            continue;
        implicated.push_back(static_cast<NodeId>(
            std::atoi(c.c_str() + colon + 1)));
    }
    std::string dumpedPath;
    for (Network *net : {&netA, &netB}) {
        TraceRecorder *tracer = net->tracer();
        if (!tracer)
            continue;
        if (!dumpedPath.empty() &&
            tracer->params().flightPath == dumpedPath) {
            warn("bisect: side b shares side a's flight path '",
                 dumpedPath,
                 "'; skipping its dump (set b_trace_flight_file= "
                 "to capture both rings)");
            continue;
        }
        if (tracer->triggerFlightDump("digest-divergence",
                                      implicated)) {
            dumpedPath = tracer->params().flightPath;
            t.addRow({"flight_dump", dumpedPath});
        }
    }

    t.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    const auto positional = config.parseArgs(argc, argv);
    if (positional.empty()) {
        std::cerr
            << "usage: trace_tool <command> key=value...\n"
               "  gen       workload=<name> out=<path> [horizon_ns=N]\n"
               "  info      in=<trace>\n"
               "  filter    in=<trace> out=<trace> [network=0|1] "
               "[src=N] [dst=N] [from_ns=X] [to_ns=Y]\n"
               "  histogram in=<trace> [bins=20]\n"
               "  analyze   in=<flight.jsonl> [topk=10]   "
               "(flight-recorder dump forensics)\n"
               "  snapshot-info in=<checkpoint.snap>      "
               "(validate + describe a checkpoint)\n"
               "  profile   in=<profile.jsonl> [topk=10] [shards=N] "
               "(self-profiling phase/router report)\n"
               "  diff      a=<ledger.jsonl> b=<ledger.jsonl>       "
               "(first divergent digest stride)\n"
               "  bisect    a=<ledger> b=<ledger> snap_a=<ckpt> "
               "snap_b=<ckpt> <synthetic keys> [a_K=V] [b_K=V]\n"
               "            (replay from checkpoints, pin the exact "
               "divergent cycle + components)\n";
        return 2;
    }
    const std::string &cmd = positional.front();
    if (cmd == "gen")
        return cmdGen(config);
    if (cmd == "info")
        return cmdInfo(config);
    if (cmd == "filter")
        return cmdFilter(config);
    if (cmd == "histogram")
        return cmdHistogram(config);
    if (cmd == "analyze")
        return cmdAnalyze(config);
    if (cmd == "snapshot-info")
        return cmdSnapshotInfo(config);
    if (cmd == "profile")
        return cmdProfile(config);
    if (cmd == "diff")
        return cmdDiff(config);
    if (cmd == "bisect")
        return cmdBisect(config);
    nox::fatal("unknown command '", cmd, "'");
}
