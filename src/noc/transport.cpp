#include "noc/transport.hpp"

#include <algorithm>
#include <vector>

#include "common/log.hpp"

namespace nox {

E2eTransport::E2eTransport(int nodes, Cycle timeout,
                           std::uint32_t retry_limit, Cycle ack_delay)
    : nodes_(nodes), timeout_(timeout), retryLimit_(retry_limit),
      ackDelay_(ack_delay), flows_(nodes)
{
    NOX_ASSERT(timeout_ > 0, "E2E timeout must be positive");
}

void
E2eTransport::onInject(const FlitDesc &head, Cycle now)
{
    const PacketId base = basePacket(head.packet);
    NOX_ASSERT(packetAttempt(head.packet) == 0,
               "injected packet already carries attempt bits");
    NOX_ASSERT(window_.find(base) == window_.end(),
               "packet ", base, " already in the transport window");
    TransportEntry e;
    e.src = head.src;
    e.dest = head.dest;
    e.numFlits = head.packetSize;
    e.cls = head.cls;
    e.flowSeq = head.flowSeq;
    e.origCreate = head.createCycle;
    window_.emplace(base, e);
    timeouts_.emplace_back(now + timeout_, base);
}

bool
E2eTransport::duplicateFlit(const FlitDesc &d) const
{
    const FlowFilter *f = flows_.find(d.src, d.dest);
    return f != nullptr && f->contains(d.flowSeq);
}

bool
E2eTransport::onPacketDelivered(PacketId wire_packet, Cycle now,
                                std::uint32_t &attempts_out)
{
    const PacketId base = basePacket(wire_packet);
    const auto it = window_.find(base);
    // The door filter drops every flit of a retired packet before it
    // can reach arrival counting, so a completion always finds its
    // window entry, and finds it at most once.
    NOX_ASSERT(it != window_.end(),
               "completion for packet ", base,
               " without a transport window entry");
    TransportEntry &e = it->second;
    NOX_ASSERT(!e.delivered, "packet ", base, " completed twice");
    e.delivered = true;
    markFlowDone(e);
    acks_.emplace_back(now + ackDelay_, base);
    attempts_out = e.attempt;
    return true;
}

void
E2eTransport::sweep(Cycle now, TransportListener &listener)
{
    // Acks first: an entry whose ack and (stale) timeout are both due
    // retires cleanly instead of burning a retry.
    while (!acks_.empty() && acks_.front().first <= now) {
        const PacketId base = acks_.front().second;
        acks_.pop_front();
        const auto it = window_.find(base);
        NOX_ASSERT(it != window_.end() && it->second.delivered,
                   "ack due for retired packet ", base);
        const TransportEntry e = it->second;
        window_.erase(it);
        listener.onE2eAck(base, e);
    }

    while (!timeouts_.empty() && timeouts_.front().first <= now) {
        const PacketId base = timeouts_.front().second;
        timeouts_.pop_front();
        const auto it = window_.find(base);
        if (it == window_.end() || it->second.delivered)
            continue; // retired or awaiting its ack — stale wakeup
        TransportEntry &e = it->second;
        if (e.retries >= retryLimit_) {
            // Abandon: mark the flow so stragglers of any attempt are
            // dropped at the door, then surface the failure.
            markFlowDone(e);
            const TransportEntry dead = e;
            window_.erase(it);
            listener.onE2eFail(base, dead);
            continue;
        }
        e.retries += 1;
        e.attempt += 1;
        timeouts_.emplace_back(now + timeout_, base);
        // A false return means the resend could not be performed now
        // (dead source NIC, unreachable destination); the re-armed
        // timeout retries after the next heal window.
        (void)listener.onE2eResend(base, e);
    }
}

void
E2eTransport::markFlowDone(const TransportEntry &e)
{
    flows_(e.src, e.dest).insert(e.flowSeq);
}

void
E2eTransport::serialize(snap::Writer &w) const
{
    snap::tag(w, snap::fourcc("TRNS"));

    std::vector<PacketId> keys;
    keys.reserve(window_.size());
    for (const auto &[base, e] : window_)
        keys.push_back(base);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (const PacketId base : keys) {
        const TransportEntry &e = window_.at(base);
        w.u64(base);
        w.i32(e.src);
        w.i32(e.dest);
        w.u32(e.numFlits);
        w.u8(static_cast<std::uint8_t>(e.cls));
        w.u32(e.flowSeq);
        w.u64(e.origCreate);
        w.u32(e.attempt);
        w.u32(e.retries);
        w.boolean(e.delivered);
    }

    w.u64(timeouts_.size());
    for (const auto &[due, base] : timeouts_) {
        w.u64(due);
        w.u64(base);
    }
    w.u64(acks_.size());
    for (const auto &[due, base] : acks_) {
        w.u64(due);
        w.u64(base);
    }

    flows_.serialize(w, [](snap::Writer &out, const FlowFilter &f) {
        out.u32(f.watermark);
        out.u64(f.above.size());
        for (const std::uint32_t seq : f.above)
            out.u32(seq);
    });
}

void
E2eTransport::restore(snap::Reader &r)
{
    snap::checkTag(r, snap::fourcc("TRNS"));

    window_.clear();
    timeouts_.clear();
    acks_.clear();

    const std::uint64_t nw = r.u64();
    for (std::uint64_t i = 0; i < nw; ++i) {
        const PacketId base = r.u64();
        TransportEntry e;
        e.src = r.i32();
        e.dest = r.i32();
        e.numFlits = r.u32();
        e.cls = static_cast<TrafficClass>(r.u8());
        e.flowSeq = r.u32();
        e.origCreate = r.u64();
        e.attempt = r.u32();
        e.retries = r.u32();
        e.delivered = r.boolean();
        if (e.src < 0 || e.src >= nodes_ || e.dest < 0 ||
            e.dest >= nodes_)
            r.fail("transport window entry names a node out of range");
        if (!window_.emplace(base, e).second)
            r.fail("duplicate transport window entry");
    }

    const std::uint64_t nt = r.u64();
    for (std::uint64_t i = 0; i < nt; ++i) {
        const Cycle due = r.u64();
        const PacketId base = r.u64();
        if (!timeouts_.empty() && due < timeouts_.back().first)
            r.fail("transport timeout deque not monotone");
        timeouts_.emplace_back(due, base);
    }
    const std::uint64_t na = r.u64();
    for (std::uint64_t i = 0; i < na; ++i) {
        const Cycle due = r.u64();
        const PacketId base = r.u64();
        if (!acks_.empty() && due < acks_.back().first)
            r.fail("transport ack deque not monotone");
        acks_.emplace_back(due, base);
    }

    flows_.restore(r, 12, [](snap::Reader &in, FlowFilter &f) {
        f.watermark = in.u32();
        const std::size_t ns = in.count(4);
        for (std::size_t s = 0; s < ns; ++s) {
            const std::uint32_t seq = in.u32();
            if (seq < f.watermark)
                in.fail("flow filter entry below its watermark");
            if (!f.above.empty() && seq <= f.above.back())
                in.fail("flow filter entries not ascending");
            f.above.push_back(seq);
        }
    });
}

} // namespace nox
