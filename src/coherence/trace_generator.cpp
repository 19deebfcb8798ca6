#include "coherence/trace_generator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/config.hpp"
#include "common/log.hpp"

namespace nox {

namespace {

constexpr std::uint8_t kReqNet = 0;
constexpr std::uint8_t kRepNet = 1;

} // namespace

/** Per-core state. */
struct CoherenceTraceGenerator::Core
{
    Core(int id_, const CmpParams &p, const WorkloadProfile &w,
         std::uint64_t seed)
        : id(id_), l1(p.l1SizeKB, p.l1Ways, p.lineBytes),
          l2(p.l2SizeKB, p.l2Ways, p.lineBytes),
          stream(w, id_, p.lineBytes, seed), rng(seed ^ 0x5EED)
    {
    }

    int id;
    double timeNs = 0.0;
    SetAssocCache l1;
    SetAssocCache l2;
    AddressStream stream;
    Rng rng;
};

CoherenceTraceGenerator::CoherenceTraceGenerator(
    const CmpParams &params, const WorkloadProfile &profile,
    std::uint64_t seed)
    : params_(params), profile_(profile),
      mesh_(params.meshWidth, params.meshHeight),
      directory_(params.cores)
{
    NOX_ASSERT(params.cores == mesh_.numNodes(),
               "core count must match mesh size");
    Rng seeder(seed ^ profile.seedSalt);
    for (int c = 0; c < params.cores; ++c) {
        cores_.push_back(std::make_unique<Core>(c, params, profile,
                                                seeder.next()));
    }
}

CoherenceTraceGenerator::~CoherenceTraceGenerator() = default;

double
CoherenceTraceGenerator::msgLatencyNs(NodeId from, NodeId to,
                                      int bytes) const
{
    if (from == to)
        return 0.0;
    // Roughly one network cycle (~0.8 ns) per hop plus injection /
    // ejection overhead, plus wormhole serialization of body flits.
    const double per_hop = 0.8;
    const int hops = mesh_.hopDistance(from, to) + 2;
    const int flits = (bytes + 7) / 8;
    return per_hop * (hops + flits - 1);
}

void
CoherenceTraceGenerator::emit(double time_ns, NodeId src, NodeId dst,
                              int bytes, std::uint8_t network,
                              TrafficClass cls)
{
    if (src == dst)
        return; // tile-local transfer never enters the network
    if (bytes > params_.ctrlPacketBytes)
        stats_.dataPackets += 1;
    else
        stats_.ctrlPackets += 1;
    if (time_ns < warmupNs_)
        return; // warmup traffic is counted but not kept
    TraceRecord r;
    r.timeNs = time_ns - warmupNs_;
    r.src = src;
    r.dst = dst;
    r.sizeBytes = static_cast<std::uint32_t>(bytes);
    r.network = network;
    r.cls = cls;
    records_.push_back(r);
}

void
CoherenceTraceGenerator::invalidateTile(NodeId tile,
                                        std::uint64_t line)
{
    Core &c = *cores_[tile];
    c.l1.invalidate(line);
    c.l2.invalidate(line);
    directory_.removeSharer(line, tile);
}

double
CoherenceTraceGenerator::fill(Core &core, std::uint64_t line,
                              bool dirty)
{
    double extra = 0.0;
    const double cpu = params_.cpuCycleNs();

    // L2 fill with inclusive eviction handling.
    const auto l2v = core.l2.insert(line, dirty);
    if (l2v.evicted) {
        // Inclusion: purge the victim from L1 (fold its dirtiness in).
        bool victim_dirty = l2v.victimDirty;
        if (core.l1.contains(l2v.victimLine)) {
            victim_dirty |= core.l1.isDirty(l2v.victimLine);
            core.l1.invalidate(l2v.victimLine);
        }
        const NodeId home = directory_.homeOf(l2v.victimLine);
        if (victim_dirty) {
            // PutM with data on the request network; home acks.
            stats_.writebacks += 1;
            emit(core.timeNs, core.id, home, params_.dataPacketBytes,
                 kReqNet, TrafficClass::Request);
            emit(core.timeNs +
                     msgLatencyNs(core.id, home,
                                  params_.dataPacketBytes),
                 home, core.id, params_.ctrlPacketBytes, kRepNet,
                 TrafficClass::Reply);
            directory_.setInvalid(l2v.victimLine);
            extra += 2.0 * cpu; // queue the writeback
        } else {
            // Clean eviction: explicit PutS keeps the directory's
            // sharer list exact (non-silent protocol); the home acks.
            emit(core.timeNs, core.id, home, params_.ctrlPacketBytes,
                 kReqNet, TrafficClass::Request);
            emit(core.timeNs +
                     msgLatencyNs(core.id, home,
                                  params_.ctrlPacketBytes),
                 home, core.id, params_.ctrlPacketBytes, kRepNet,
                 TrafficClass::Reply);
            directory_.removeSharer(l2v.victimLine, core.id);
        }
    }

    // L1 fill.
    const auto l1v = core.l1.insert(line, dirty);
    if (l1v.evicted && l1v.victimDirty) {
        // Dirty L1 victim folds into L2 (inclusion guarantees
        // presence unless it was just purged above).
        core.l2.markDirty(l1v.victimLine);
    }
    return extra;
}

double
CoherenceTraceGenerator::transaction(Core &core, std::uint64_t line,
                                     bool write)
{
    const double cpu = params_.cpuCycleNs();
    const double mem = params_.memLatencyCpuCycles * cpu;
    const int ctrl = params_.ctrlPacketBytes;
    const int data = params_.dataPacketBytes;
    const NodeId home = directory_.homeOf(line);
    const double t0 = core.timeNs;

    // Request to the home directory.
    if (write)
        stats_.getM += 1;
    else
        stats_.getS += 1;
    emit(t0, core.id, home, ctrl, kReqNet, TrafficClass::Request);
    const double t_home = t0 + msgLatencyNs(core.id, home, ctrl);

    const DirEntry *e = directory_.find(line);
    const DirState state = e ? e->state : DirState::Invalid;
    double t_done;

    if (state == DirState::Modified && e->owner != core.id) {
        // 3-hop: forward to the owner, who supplies the data.
        stats_.forwards += 1;
        const NodeId owner = e->owner;
        emit(t_home, home, owner, ctrl, kReqNet,
             TrafficClass::Request);
        const double t_owner =
            t_home + msgLatencyNs(home, owner, ctrl);
        // Owner sends the line to the requestor...
        emit(t_owner, owner, core.id, data, kRepNet,
             TrafficClass::Reply);
        t_done = t_owner + msgLatencyNs(owner, core.id, data);
        if (write) {
            // ...and invalidates its copy.
            invalidateTile(owner, line);
            directory_.setModified(line, core.id);
        } else {
            // ...and also writes the dirty line back to the home.
            emit(t_owner, owner, home, data, kRepNet,
                 TrafficClass::Reply);
            cores_[owner]->l2.clearDirty(line); // stays cached, clean
            cores_[owner]->l1.clearDirty(line);
            directory_.entry(line).state = DirState::Shared;
            directory_.entry(line).owner = kInvalidNode;
            directory_.addSharer(line, owner);
            directory_.addSharer(line, core.id);
        }
    } else if (state == DirState::Shared && write) {
        // Invalidate all sharers; they ack the requestor directly.
        double t_acks = t_home;
        const std::uint64_t sharers = e->sharers;
        const bool upgrade = e->isSharer(core.id);
        for (NodeId s = 0; s < params_.cores; ++s) {
            if (!((sharers >> s) & 1ULL) || s == core.id)
                continue;
            stats_.invalidations += 1;
            emit(t_home, home, s, ctrl, kReqNet,
                 TrafficClass::Request);
            const double t_s = t_home + msgLatencyNs(home, s, ctrl);
            emit(t_s, s, core.id, ctrl, kRepNet, TrafficClass::Reply);
            t_acks = std::max(t_acks,
                              t_s + msgLatencyNs(s, core.id, ctrl));
            invalidateTile(s, line);
        }
        // Home grants in parallel with invalidation: full data for a
        // miss, a control-sized ack for an upgrade (the writer
        // already holds the line).
        const int grant = upgrade ? ctrl : data;
        emit(t_home + cpu, home, core.id, grant, kRepNet,
             TrafficClass::Reply);
        const double t_data =
            t_home + cpu + msgLatencyNs(home, core.id, grant);
        t_done = std::max(t_acks, t_data);
        directory_.setModified(line, core.id);
    } else if (state == DirState::Shared && !write) {
        // Home supplies the data (from its cached/memory copy).
        const double t_issue = t_home + 6.0 * cpu;
        emit(t_issue, home, core.id, data, kRepNet,
             TrafficClass::Reply);
        t_done = t_issue + msgLatencyNs(home, core.id, data);
        directory_.addSharer(line, core.id);
    } else {
        // Invalid (or stale-Modified self): fetch from memory.
        NOX_ASSERT(!(state == DirState::Modified &&
                     e->owner == core.id),
                   "L2 miss on a line the directory says we own");
        const double t_issue = t_home + mem;
        emit(t_issue, home, core.id, data, kRepNet,
             TrafficClass::Reply);
        t_done = t_issue + msgLatencyNs(home, core.id, data);
        if (write)
            directory_.setModified(line, core.id);
        else
            directory_.addSharer(line, core.id);
    }

    // Completion (unblock) message closing the transaction at the
    // home, as in MSHR-based directory implementations.
    emit(t_done, core.id, home, ctrl, kReqNet, TrafficClass::Request);

    directory_.checkInvariants(line);
    return std::max(t_done - t0, cpu);
}

void
CoherenceTraceGenerator::processOp(Core &core)
{
    const double cpu = params_.cpuCycleNs();

    // Barrier-synchronized phase schedule, global across cores: the
    // communication window concentrates shared accesses and raises
    // the issue rate; compute phases touch mostly private data.
    const double phase =
        profile_.commPeriodNs > 0.0
            ? core.timeNs -
                  std::floor(core.timeNs / profile_.commPeriodNs) *
                      profile_.commPeriodNs
            : 0.0;
    const bool in_window = profile_.commPeriodNs > 0.0 &&
                           phase < profile_.commWindowNs;

    // Issue gap between memory operations.
    double mean_gap = cpu / profile_.memOpsPerCpuCycle;
    double shared_scale = 0.25;
    double hot_scale = 1.0;
    if (in_window) {
        mean_gap /= profile_.windowOpBoost;
        shared_scale = profile_.windowSharedBoost;
        hot_scale = profile_.windowHotBoost;
    }
    core.timeNs += core.rng.nextExponential(mean_gap);

    const AddressStream::Op op =
        core.stream.next(shared_scale, hot_scale);
    const std::uint64_t line = core.l1.lineOf(op.addr);
    stats_.memOps += 1;

    // Upgrade-in-place: a write hitting a clean line we only share
    // needs GetM; model via the dirty bit + directory state.
    if (core.l1.lookup(line)) {
        stats_.l1Hits += 1;
        if (op.write && !core.l1.isDirty(line)) {
            const DirEntry *e = directory_.find(line);
            const bool exclusive = e &&
                                   e->state == DirState::Modified &&
                                   e->owner == core.id;
            if (!exclusive) {
                core.timeNs += transaction(core, line, true);
            }
            core.l1.markDirty(line);
            core.l2.markDirty(line);
        }
        return;
    }
    stats_.l1Misses += 1;
    core.timeNs += 2.0 * cpu; // L1 miss detection / L2 probe

    if (core.l2.lookup(line)) {
        stats_.l2Hits += 1;
        core.timeNs += 8.0 * cpu; // L2 hit latency
        if (op.write && !core.l2.isDirty(line)) {
            const DirEntry *e = directory_.find(line);
            const bool exclusive = e &&
                                   e->state == DirState::Modified &&
                                   e->owner == core.id;
            if (!exclusive)
                core.timeNs += transaction(core, line, true);
            core.l2.markDirty(line);
        }
        // Refill L1 from L2 (inclusion holds).
        const auto l1v = core.l1.insert(line, op.write);
        if (l1v.evicted && l1v.victimDirty)
            core.l2.markDirty(l1v.victimLine);
        return;
    }
    stats_.l2Misses += 1;
    const double lat = transaction(core, line, op.write);
    // Memory-level parallelism: an in-order core with a miss buffer
    // overlaps (mlp-1)/mlp of its misses with an earlier outstanding
    // one, paying only the issue gap; the final miss of each burst
    // pays the full round trip. Overlapped issue produces the
    // back-to-back request bursts characteristic of real traffic.
    if (profile_.mlp > 1.0 &&
        core.rng.nextBernoulli(1.0 - 1.0 / profile_.mlp)) {
        core.timeNs += 2.0 * params_.cpuCycleNs();
    } else {
        core.timeNs += lat;
    }
    core.timeNs += fill(core, line, op.write);
}

Trace
CoherenceTraceGenerator::generate(double horizon_ns, double warmup_ns)
{
    NOX_ASSERT(horizon_ns > 0.0, "horizon must be positive");
    NOX_ASSERT(warmup_ns >= 0.0, "warmup must be non-negative");
    const double end_ns = warmup_ns + horizon_ns;
    warmupNs_ = warmup_ns;

    // Globally ordered simulation: always advance the core with the
    // smallest local time (the lowest id on a tie), so directory
    // transactions interleave in timestamp order. A winner tree over
    // the cores' times finds it: node i holds the winner of its two
    // children, leaves sit at [leaves, 2 * leaves) in id order, and
    // the left child wins ties, so every node keeps its subtree's
    // lowest (time, id). Only the advanced core's path is replayed.
    const int cores = static_cast<int>(cores_.size());
    const int leaves = static_cast<int>(
        std::bit_ceil(static_cast<unsigned>(cores)));
    std::vector<double> times(static_cast<std::size_t>(leaves),
                              std::numeric_limits<double>::infinity());
    for (int c = 0; c < cores; ++c)
        times[c] = cores_[c]->timeNs;
    std::vector<int> winner(2 * static_cast<std::size_t>(leaves));
    auto play = [&](int node) {
        const int l = winner[2 * node];
        const int r = winner[2 * node + 1];
        winner[node] = times[r] < times[l] ? r : l;
    };
    for (int i = 0; i < leaves; ++i)
        winner[leaves + i] = i;
    for (int node = leaves - 1; node >= 1; --node)
        play(node);

    // The winner is the earliest core: once it reaches the end, every
    // core has.
    for (int id = winner[1]; times[id] < end_ns; id = winner[1]) {
        Core &core = *cores_[id];
        processOp(core);
        times[id] = core.timeNs;
        for (int node = (leaves + id) / 2; node >= 1; node /= 2)
            play(node);
    }

    Trace trace;
    trace.name = profile_.name;
    trace.durationNs = horizon_ns;
    std::stable_sort(records_.begin(), records_.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.timeNs < b.timeNs;
                     });
    // Transactions issued near the horizon may emit slightly past it;
    // keep them (the replay handles any timestamp) but extend the
    // duration bookkeeping.
    trace.records = std::move(records_);
    if (!trace.records.empty()) {
        trace.durationNs = std::max(
            horizon_ns, trace.records.back().timeNs);
    }
    return trace;
}

Trace
traceFromConfig(const Config &config)
{
    CoherenceTraceGenerator gen(
        CmpParams{}, findWorkload(config.getString("workload", "tpcc")),
        config.getUint("seed", 99));
    return gen.generate(config.getDouble("horizon_ns", 25000.0, 0.0),
                        config.getDouble("warmup_ns", 50000.0, 0.0));
}

} // namespace nox
