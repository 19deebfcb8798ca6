#include "obs/provenance.hpp"

#include <algorithm>
#include <fstream>

#include "common/log.hpp"
#include "obs/jsonl.hpp"
#include "snapshot/io.hpp"

namespace nox {

const char *
latencyComponentName(LatencyComponent c)
{
    switch (c) {
    case LatencyComponent::SourceQueue: return "source_queue";
    case LatencyComponent::RouterPipeline: return "router_pipeline";
    case LatencyComponent::LinkSerialization:
        return "link_serialization";
    case LatencyComponent::CreditStall: return "credit_stall";
    case LatencyComponent::ArbLoss: return "arb_loss";
    case LatencyComponent::XorRecovery: return "xor_recovery";
    case LatencyComponent::Retransmit: return "retransmit";
    case LatencyComponent::Reroute: return "reroute";
    }
    return "?";
}

void
LatencyProvenance::onPacketCreate(const std::vector<FlitDesc> &flits,
                                  Cycle now)
{
    for (const FlitDesc &d : flits) {
        FlitTrack t;
        t.segStart = now;
        t.createCycle = now;
        t.cls = d.cls;
        t.packet = d.packet;
        t.src = d.src;
        t.dest = d.dest;
        t.at = d.src;
        t.nic = true;
        tracks_.emplace(d.uid, t);
    }
}

void
LatencyProvenance::onRetransmit(const std::vector<FlitDesc> &flits,
                                Cycle now)
{
    for (const FlitDesc &d : flits) {
        FlitTrack t;
        t.segStart = now;
        t.createCycle = d.createCycle; // original create: logical
                                       // latency, not attempt latency
        t.cls = d.cls;
        t.packet = d.packet;
        t.src = d.src;
        t.dest = d.dest;
        t.at = d.src;
        t.nic = true;
        // Cycles burned by the lost earlier attempts (original create
        // through this resend) are E2E retransmission overhead.
        t.comp[static_cast<std::size_t>(
            LatencyComponent::Retransmit)] += now - d.createCycle;
        tracks_.emplace(d.uid, t);
    }
}

void
LatencyProvenance::onInject(std::uint64_t uid, NodeId router,
                            Cycle now)
{
    auto it = tracks_.find(uid);
    if (it == tracks_.end())
        return;
    FlitTrack &t = it->second;
    t.comp[static_cast<std::size_t>(LatencyComponent::SourceQueue)] +=
        now - t.segStart;
    t.segStart = now;
    t.segStalls = 0;
    t.at = router;
    t.nic = false;
    t.injected = true;
}

void
LatencyProvenance::closeSegment(FlitTrack &t, Cycle now,
                                std::uint64_t pipeline)
{
    // Segment span: staged at segStart (visible downstream from
    // segStart + 1), accepted onward at `now`. Explicit stalls can
    // only have landed on cycles (segStart, now), so the residual is
    // non-negative on a correct build.
    const std::uint64_t span = now - t.segStart;
    std::uint64_t residual = 0;
    if (span >= 1 + static_cast<std::uint64_t>(t.segStalls)) {
        residual = span - 1 - t.segStalls;
    } else {
        // Over-charged segment: a charge site billed a cycle the flit
        // actually moved. Clamp so the export stays monotone; the
        // delivery-time conservation check will flag the flit.
        ++conservationViolations_;
    }
    t.comp[static_cast<std::size_t>(
        LatencyComponent::RouterPipeline)] += pipeline;
    t.comp[static_cast<std::size_t>(
        LatencyComponent::LinkSerialization)] += residual;
}

void
LatencyProvenance::onHopSend(std::uint64_t uid, Cycle now,
                             NodeId target, bool target_is_nic)
{
    auto it = tracks_.find(uid);
    if (it == tracks_.end())
        return;
    FlitTrack &t = it->second;
    closeSegment(t, now, 1);
    t.segStart = now;
    t.segStalls = 0;
    t.at = target;
    t.nic = target_is_nic;
}

void
LatencyProvenance::onStall(std::uint64_t uid, LatencyComponent c,
                           NodeId node, bool nic, Cycle now)
{
    auto it = tracks_.find(uid);
    if (it == tracks_.end())
        return;
    FlitTrack &t = it->second;
    // Location guard: only the component currently holding the flit
    // may charge it (a retry buffer's stale copy, or an XOR chain
    // constituent that has not arrived here yet, must not).
    if (!t.injected || t.at != node || t.nic != nic)
        return;
    // Per-cycle guard: at most one stall cycle per flit per cycle.
    if (t.lastCharge == now)
        return;
    t.lastCharge = now;
    ++t.segStalls;
    ++t.comp[static_cast<std::size_t>(c)];
}

void
LatencyProvenance::onDelivered(const FlitDesc &flit, Cycle now,
                               bool completes_packet)
{
    auto it = tracks_.find(flit.uid);
    if (it == tracks_.end())
        return;
    FlitTrack &t = it->second;
    // Ejection segment: the final link traversal plus the sink's
    // decode/deliver stage — two productive pipeline cycles, matching
    // the simulator's `latency = deliver - create + 1` convention.
    closeSegment(t, now, 2);

    const std::uint64_t latency = now - t.createCycle + 1;
    std::uint64_t sum = 0;
    for (std::uint64_t v : t.comp)
        sum += v;
    if (sum != latency)
        ++conservationViolations_;

    // The completing flit's span covers createCycle..now, i.e. the
    // packet's measured latency exactly; aggregate that one span per
    // packet, window-gated like NetworkStats.
    if (completes_packet && t.createCycle >= measureStart_ &&
        t.createCycle < measureEnd_) {
        total_.add(latency, t.comp);
        byClass_[static_cast<std::size_t>(t.cls)].add(latency, t.comp);
        byFlow_[flowKey(t.src, t.dest)].add(latency, t.comp);
    }
    tracks_.erase(it);
}

void
LatencyProvenance::forgetFlits(const std::vector<std::uint64_t> &uids)
{
    for (std::uint64_t uid : uids)
        tracks_.erase(uid);
}

bool
LatencyProvenance::writeJsonl(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        warn("provenance: cannot write ", path);
        return false;
    }
    jsonl::Writer w(os);
    const auto breakdown = [&](const LatencyBreakdown &b) {
        w.field("packets", b.packets);
        w.field("total_cycles", b.totalCycles);
        for (std::size_t i = 0; i < kNumLatencyComponents; ++i) {
            w.field(latencyComponentName(static_cast<LatencyComponent>(i)),
                    b.comp[i]);
        }
    };
    w.record([&] {
        w.tag("scope", "total");
        breakdown(total_);
    });
    static const char *kClassNames[] = {"synthetic", "request",
                                        "reply"};
    for (std::size_t i = 0; i < byClass_.size(); ++i) {
        if (byClass_[i].packets == 0)
            continue;
        w.record([&] {
            w.tag("scope", "class");
            w.field("class", kClassNames[i]);
            breakdown(byClass_[i]);
        });
    }
    // Deterministic flow order (unordered_map iteration is not).
    std::vector<std::uint64_t> keys;
    keys.reserve(byFlow_.size());
    for (const auto &[key, b] : byFlow_)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t key : keys) {
        w.record([&] {
            w.tag("scope", "flow");
            w.field("src", key >> 32);
            w.field("dest", key & 0xFFFFFFFFu);
            breakdown(byFlow_.at(key));
        });
    }
    return os.good();
}

template <typename Ar, typename Self>
void
LatencyProvenance::layout(Ar &ar, Self &self)
{
    const auto breakdown = [](auto &a, auto &b) {
        snap::fields(a, b.packets, b.totalCycles, b.comp);
    };
    snap::tag(ar, snap::fourcc("PROV"));
    snap::fields(ar, self.measureStart_, self.measureEnd_,
                 self.conservationViolations_);
    breakdown(ar, self.total_);
    for (auto &b : self.byClass_)
        breakdown(ar, b);
    snap::ioSortedMap(ar, self.byFlow_, 88, breakdown);
    snap::ioSortedMap(ar, self.tracks_, 123, [](auto &a, auto &t) {
        snap::fields(a, t.segStart, t.lastCharge, t.segStalls, t.at, t.nic,
                     t.injected, t.createCycle);
        snap::ioEnum(a, t.cls, TrafficClass::Reply);
        snap::fields(a, t.packet, t.src, t.dest, t.comp);
    });
}

void
LatencyProvenance::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
LatencyProvenance::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
