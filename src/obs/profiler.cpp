#include "obs/profiler.hpp"

#include <algorithm>
#include <fstream>

#include "obs/jsonl.hpp"

namespace nox {

const char *
simPhaseName(SimPhase phase)
{
    switch (phase) {
      case SimPhase::TrafficInject:
        return "traffic_inject";
      case SimPhase::LinkRetry:
        return "link_retry";
      case SimPhase::RouterEvaluate:
        return "router_evaluate";
      case SimPhase::NicEject:
        return "nic_eject";
      case SimPhase::Scheduler:
        return "scheduler";
      case SimPhase::ObsFlush:
        return "obs_flush";
      case SimPhase::Checkpoint:
        return "checkpoint";
    }
    panic("unknown sim phase ", static_cast<int>(phase));
}

double
loadImbalance(const std::vector<std::uint64_t> &work,
              const std::vector<int> &shardOf, int numShards)
{
    NOX_ASSERT(numShards > 0, "partition needs at least one shard");
    NOX_ASSERT(work.size() == shardOf.size(),
               "work/partition size mismatch: ", work.size(), " vs ",
               shardOf.size());
    std::vector<std::uint64_t> shard(
        static_cast<std::size_t>(numShards), 0);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
        const int s = shardOf[i];
        NOX_ASSERT(s >= 0 && s < numShards, "router ", i,
                   " assigned to shard ", s, " of ", numShards);
        shard[static_cast<std::size_t>(s)] += work[i];
        total += work[i];
    }
    if (total == 0)
        return 1.0; // no work is trivially balanced
    const std::uint64_t worst =
        *std::max_element(shard.begin(), shard.end());
    const double mean =
        static_cast<double>(total) / static_cast<double>(numShards);
    return static_cast<double>(worst) / mean;
}

std::vector<int>
rowStripePartition(int width, int height, int numShards)
{
    NOX_ASSERT(width > 0 && height > 0, "degenerate mesh");
    NOX_ASSERT(numShards > 0, "partition needs at least one shard");
    std::vector<int> shardOf(
        static_cast<std::size_t>(width) *
        static_cast<std::size_t>(height));
    for (int r = 0; r < width * height; ++r) {
        const int row = r / width;
        shardOf[static_cast<std::size_t>(r)] =
            static_cast<int>((static_cast<std::int64_t>(row) *
                              numShards) /
                             height);
    }
    return shardOf;
}

PhaseProfiler::PhaseProfiler(const ProfilerParams &params,
                             int num_routers)
    : params_(params)
{
    NOX_ASSERT(num_routers > 0, "profiler needs at least one router");
    evals_.assign(static_cast<std::size_t>(num_routers), 0);
    flitsMoved_.assign(static_cast<std::size_t>(num_routers), 0);
    arbRounds_.assign(static_cast<std::size_t>(num_routers), 0);
}

std::uint64_t
PhaseProfiler::phaseNsSum() const
{
    std::uint64_t sum = 0;
    for (const PhaseTotals &t : phases_)
        sum += t.ns;
    return sum;
}

double
PhaseProfiler::coverage() const
{
    if (totalNs_ == 0)
        return 1.0;
    return static_cast<double>(phaseNsSum()) /
           static_cast<double>(totalNs_);
}

void
PhaseProfiler::recordRouterWork(NodeId router,
                                std::uint64_t flits_moved,
                                std::uint64_t arb_rounds)
{
    flitsMoved_[static_cast<std::size_t>(router)] = flits_moved;
    arbRounds_[static_cast<std::size_t>(router)] = arb_rounds;
}

RouterWork
PhaseProfiler::routerWork(NodeId router) const
{
    const auto i = static_cast<std::size_t>(router);
    return {evals_[i], flitsMoved_[i], arbRounds_[i]};
}

ProfileFile
PhaseProfiler::report(const ProfileMeta &meta) const
{
    ProfileFile f;
    f.steps = steps_;
    f.totalNs = totalNs_;
    f.phaseNsSum = phaseNsSum();
    f.coverage = coverage();
    f.meta = meta;
    f.routerCount = evals_.size();
    for (std::size_t i = 0; i < kNumSimPhases; ++i)
        f.phases.push_back(
            {simPhaseName(static_cast<SimPhase>(i)), phases_[i]});
    for (std::size_t r = 0; r < evals_.size(); ++r)
        f.routers.push_back({r, routerWork(static_cast<NodeId>(r))});
    // Precomputed imbalance for the default 4-way row-stripe
    // partition (trace_tool profile recomputes for any shards=).
    if (meta.width > 0 && meta.height > 0 &&
        static_cast<std::size_t>(meta.width) *
                static_cast<std::size_t>(meta.height) ==
            evals_.size()) {
        const int shards = std::min(4, meta.height);
        const std::vector<int> part =
            rowStripePartition(meta.width, meta.height, shards);
        f.imbalances.push_back(
            {"evals", shards, loadImbalance(evals_, part, shards)});
        f.imbalances.push_back(
            {"flits", shards, loadImbalance(flitsMoved_, part, shards)});
    }
    return f;
}

namespace {

template <typename Ar, typename F>
void
headerLayout(Ar &ar, F &f)
{
    ar.tag("type", "profile_header");
    ar.field("steps", f.steps);
    ar.field("total_ns", f.totalNs);
    ar.field("phase_ns_sum", f.phaseNsSum);
    ar.field("coverage", f.coverage);
    ar.field("width", f.meta.width);
    ar.check(f.meta.width >= 0, "width", "must not be negative");
    ar.field("height", f.meta.height);
    ar.check(f.meta.height >= 0, "height", "must not be negative");
    ar.field("arch", f.meta.arch);
    ar.field("sched", f.meta.sched);
    ar.field("routers", f.routerCount);
}

template <typename Ar, typename P>
void
phaseLayout(Ar &ar, P &p)
{
    ar.tag("type", "phase");
    ar.field("name", p.name);
    ar.field("ns", p.totals.ns);
    ar.field("enters", p.totals.enters);
}

template <typename Ar, typename R>
void
routerLayout(Ar &ar, R &r)
{
    ar.tag("type", "router");
    ar.field("id", r.id);
    ar.field("evals", r.work.evaluations);
    ar.field("flits", r.work.flitsMoved);
    ar.field("arb", r.work.arbRounds);
}

template <typename Ar, typename I>
void
imbalanceLayout(Ar &ar, I &i)
{
    ar.tag("type", "imbalance");
    ar.field("by", i.by);
    ar.field("shards", i.shards);
    ar.field("index", i.index);
}

} // namespace

bool
PhaseProfiler::writeJsonl(const std::string &path,
                          const ProfileMeta &meta) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot write profile JSONL: ", path);
        return false;
    }
    const ProfileFile f = report(meta);
    jsonl::Writer w(out);
    w.record([&] { headerLayout(w, f); });
    for (const ProfileFile::Phase &p : f.phases)
        w.record([&] { phaseLayout(w, p); });
    for (const ProfileFile::Router &r : f.routers)
        w.record([&] { routerLayout(w, r); });
    for (const ProfileFile::Imbalance &i : f.imbalances)
        w.record([&] { imbalanceLayout(w, i); });
    return out.good();
}

bool
loadProfile(const std::string &path, ProfileFile &out, std::string &error)
{
    out = ProfileFile{};
    return jsonl::load(path, error, [&](jsonl::Reader &r) {
        std::size_t header = 0; // line of the header, 0 = none yet
        while (r.next()) {
            const std::string type = r.type();
            if (type == "profile_header") {
                header = r.line();
                r.record([&] { headerLayout(r, out); });
            } else if (type == "phase") {
                r.record([&] { phaseLayout(r, out.phases.emplace_back()); });
            } else if (type == "router") {
                r.record(
                    [&] { routerLayout(r, out.routers.emplace_back()); });
            } else if (type == "imbalance") {
                r.record([&] {
                    imbalanceLayout(r, out.imbalances.emplace_back());
                });
            } // other record kinds are tolerated
        }
        if (header == 0) {
            r.fail("type", "no profile_header record (not a "
                           "profile_file= export?)");
        }
        std::uint64_t sum = 0;
        for (const ProfileFile::Phase &p : out.phases)
            sum += p.totals.ns;
        if (sum != out.phaseNsSum) {
            r.fail("phase_ns_sum",
                   std::to_string(out.phaseNsSum) +
                       " but the phase lines sum to " + std::to_string(sum),
                   header);
        }
        if (out.routerCount != out.routers.size()) {
            r.fail("routers",
                   std::to_string(out.routerCount) + " but " +
                       std::to_string(out.routers.size()) + " router lines",
                   header);
        }
    });
}

} // namespace nox
