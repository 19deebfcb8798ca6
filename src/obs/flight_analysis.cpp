#include "obs/flight_analysis.hpp"

#include <algorithm>
#include <map>

#include "noc/flit.hpp"

namespace nox {

std::vector<PacketTimeline>
buildTimelines(const FlightDump &dump)
{
    // std::map: timelines come out sorted by packet id.
    std::map<PacketId, PacketTimeline> by_packet;
    auto timeline = [&](PacketId packet) -> PacketTimeline & {
        PacketTimeline &t = by_packet[packet];
        t.packet = packet;
        return t;
    };

    for (const TraceEvent &e : dump.events) {
        switch (e.kind) {
          case TraceEventKind::PacketCreate: {
            PacketTimeline &t = timeline(e.id);
            t.haveCreate = true;
            t.createCycle = e.cycle;
            t.src = e.node;
            t.dest = static_cast<NodeId>(e.arg >> 16);
            t.numFlits = e.arg & 0xffffu;
            break;
          }
          case TraceEventKind::PacketDone: {
            PacketTimeline &t = timeline(e.id);
            t.haveDone = true;
            t.doneCycle = e.cycle;
            t.reportedLatency =
                static_cast<std::uint64_t>(e.arg) + 1;
            break;
          }
          case TraceEventKind::FlitInject:
          case TraceEventKind::FlitSend:
          case TraceEventKind::XorDecode:
          case TraceEventKind::FlitEject: {
            // An encoded link value belongs to no single packet; the
            // recorder writes id 0 for those (real packet ids start
            // at 1). Track head flits only: the +1 latency convention
            // keys off the head's journey and tail flits ride the
            // same wormhole path. Every E2E retransmission attempt
            // travels as its own wire packet id; fold attempts back
            // under the base id so a retransmitted packet has ONE
            // timeline covering its whole multi-attempt journey.
            if (e.id == 0 || flitSeq(e.id) != 0)
                break;
            PacketTimeline &t =
                timeline(basePacket(flitPacket(e.id)));
            t.hops.push_back(
                {e.cycle, e.kind, e.node, e.nic, e.port});
            break;
          }
          case TraceEventKind::E2eRetransmit: {
            // Packet-scope event, id is already the base packet.
            ++timeline(e.id).e2eRetransmits;
            break;
          }
          default:
            break;
        }
    }

    std::vector<PacketTimeline> out;
    out.reserve(by_packet.size());
    for (auto &[packet, t] : by_packet) {
        std::stable_sort(t.hops.begin(), t.hops.end(),
                         [](const TimelineHop &a, const TimelineHop &b) {
                             return a.cycle < b.cycle;
                         });
        out.push_back(std::move(t));
    }
    return out;
}

std::vector<SlowPacket>
slowestPackets(const FlightDump &dump,
               const std::vector<PacketTimeline> &timelines,
               std::size_t k)
{
    std::vector<const PacketTimeline *> complete;
    for (const PacketTimeline &t : timelines) {
        if (t.haveCreate && t.haveDone)
            complete.push_back(&t);
    }
    std::sort(complete.begin(), complete.end(),
              [](const PacketTimeline *a, const PacketTimeline *b) {
                  if (a->latency() != b->latency())
                      return a->latency() > b->latency();
                  return a->packet < b->packet;
              });
    if (complete.size() > k)
        complete.resize(k);

    std::vector<SlowPacket> out;
    out.reserve(complete.size());
    for (const PacketTimeline *t : complete) {
        SlowPacket s;
        s.packet = t->packet;
        s.latency = t->latency();
        s.src = t->src;
        s.dest = t->dest;
        s.e2eRetransmits = t->e2eRetransmits;

        // Critical hop: the longest gap between consecutive observed
        // points of the head flit's journey, charged to the component
        // the flit was waiting at (the gap's starting point). Hops
        // past doneCycle are a suppressed duplicate attempt arriving
        // after first delivery — not part of the latency story.
        std::vector<TimelineHop> points;
        points.push_back({t->createCycle, TraceEventKind::PacketCreate,
                          t->src, true, -1});
        for (const TimelineHop &h : t->hops) {
            if (h.cycle <= t->doneCycle)
                points.push_back(h);
        }
        points.push_back({t->doneCycle, TraceEventKind::PacketDone,
                          t->dest, true, -1});
        std::size_t worst = 0;
        Cycle worst_gap = 0;
        for (std::size_t i = 0; i + 1 < points.size(); ++i) {
            const Cycle gap =
                points[i + 1].cycle - points[i].cycle;
            if (gap > worst_gap) {
                worst_gap = gap;
                worst = i;
            }
        }
        s.stallStart = points[worst].cycle;
        s.stallEnd = points[worst + 1].cycle;
        s.stallNode = points[worst].node;
        s.stallNic = points[worst].nic;

        // This packet's own E2E retransmission inside the stall
        // window is the strongest possible signal: the gap IS the
        // timeout-and-resend round trip, so it outranks every
        // co-located vote below. A link-level nack never produces an
        // E2eRetransmit — that loss is repaired hop-local and still
        // classifies as "retransmission".
        bool e2e_in_window = false;
        for (const TraceEvent &e : dump.events) {
            if (e.kind == TraceEventKind::E2eRetransmit &&
                e.id == s.packet && e.cycle >= s.stallStart &&
                e.cycle <= s.stallEnd) {
                e2e_in_window = true;
                break;
            }
        }

        // Dominant cause: protection/recovery events co-located with
        // the stall window outvote each other; a stall that starts
        // before the head ever injected is source queueing; anything
        // unexplained is ordinary arbitration/credit back-pressure.
        if (e2e_in_window) {
            s.cause = "e2e_timeout";
        } else if (points[worst].kind == TraceEventKind::PacketCreate) {
            s.cause = "source_queueing";
        } else {
            std::uint64_t retrans = 0, xor_rec = 0, reroute = 0;
            for (const TraceEvent &e : dump.events) {
                if (e.cycle < s.stallStart || e.cycle > s.stallEnd)
                    continue;
                switch (e.kind) {
                  case TraceEventKind::CrcReject:
                  case TraceEventKind::LinkNack:
                  case TraceEventKind::Retransmit:
                  case TraceEventKind::FaultInject:
                    if (e.node == s.stallNode)
                        ++retrans;
                    break;
                  case TraceEventKind::XorEncode:
                  case TraceEventKind::NoxAbort:
                  case TraceEventKind::DecodeFault:
                    if (e.node == s.stallNode)
                        ++xor_rec;
                    break;
                  case TraceEventKind::HardFault:
                  case TraceEventKind::TableRebuild:
                    ++reroute; // global: rebuilds stall everyone
                    break;
                  default:
                    break;
                }
            }
            if (reroute > 0 && reroute >= retrans &&
                reroute >= xor_rec)
                s.cause = "reroute";
            else if (retrans > 0 && retrans >= xor_rec)
                s.cause = "retransmission";
            else if (xor_rec > 0)
                s.cause = "xor_recovery";
            else
                s.cause = "arbitration_or_credit";
        }
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace nox
