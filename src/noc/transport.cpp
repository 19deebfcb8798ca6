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

template <typename Ar, typename Self>
void
E2eTransport::layout(Ar &ar, Self &self)
{
    snap::tag(ar, snap::fourcc("TRNS"));
    const int last = self.nodes_ - 1;
    snap::ioSortedMap(ar, self.window_, 42, [last](auto &a, auto &e) {
        const char *outside =
            "transport window entry names a node out of range";
        snap::ioBounded(a, e.src, 0, last, outside);
        snap::ioBounded(a, e.dest, 0, last, outside);
        snap::io(a, e.numFlits);
        snap::ioEnum(a, e.cls, TrafficClass::Reply);
        snap::fields(a, e.flowSeq, e.origCreate, e.attempt, e.retries,
                     e.delivered);
    });
    // Timeout and ack wakeups, each deque monotone in its due cycle.
    const auto wakeups = [&ar](auto &q, const char *what) {
        Cycle due = 0;
        snap::ioSeq(ar, q, 16, [&due, what](auto &a, auto &event) {
            snap::io(a, event);
            snap::check(a, event.first >= due, what);
            due = event.first;
        });
    };
    wakeups(self.timeouts_, "transport timeout deque not monotone");
    wakeups(self.acks_, "transport ack deque not monotone");
    ioFlowTable(ar, self.flows_, 12, [](auto &a, auto &f) {
        snap::io(a, f.watermark);
        std::uint64_t floor = f.watermark; // least value the next may take
        snap::ioSeq(a, f.above, 4, [&floor](auto &b, auto &seq) {
            snap::io(b, seq);
            snap::check(b, seq >= floor,
                        "flow filter entries not ascending above the "
                        "watermark");
            floor = std::uint64_t{seq} + 1;
        });
    });
}

void
E2eTransport::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
E2eTransport::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
