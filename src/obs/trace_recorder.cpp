#include "obs/trace_recorder.hpp"

#include <fstream>
#include <string_view>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::PacketCreate:
        return "packet_create";
      case TraceEventKind::FlitInject:
        return "flit_inject";
      case TraceEventKind::FlitSend:
        return "flit_send";
      case TraceEventKind::Arbitrate:
        return "arbitrate";
      case TraceEventKind::XorEncode:
        return "xor_encode";
      case TraceEventKind::XorDecode:
        return "xor_decode";
      case TraceEventKind::NoxAbort:
        return "nox_abort";
      case TraceEventKind::FlitEject:
        return "flit_eject";
      case TraceEventKind::PacketDone:
        return "packet_done";
      case TraceEventKind::FaultInject:
        return "fault_inject";
      case TraceEventKind::CrcReject:
        return "crc_reject";
      case TraceEventKind::LinkNack:
        return "link_nack";
      case TraceEventKind::Retransmit:
        return "retransmit";
      case TraceEventKind::CreditResync:
        return "credit_resync";
      case TraceEventKind::DecodeFault:
        return "decode_fault";
      case TraceEventKind::CorruptEscape:
        return "corrupt_escape";
      case TraceEventKind::HardFault:
        return "hard_fault";
      case TraceEventKind::TableRebuild:
        return "table_rebuild";
      case TraceEventKind::UnreachableReject:
        return "unreachable_reject";
      case TraceEventKind::SchedWake:
        return "sched_wake";
      case TraceEventKind::SchedRetire:
        return "sched_retire";
      case TraceEventKind::HealApply:
        return "heal_apply";
      case TraceEventKind::E2eRetransmit:
        return "e2e_retransmit";
      case TraceEventKind::E2eAck:
        return "e2e_ack";
      case TraceEventKind::DupSuppress:
        return "dup_suppress";
    }
    panic("unknown trace event kind");
}

bool
parseTraceEventKind(const char *name, TraceEventKind &out)
{
    constexpr auto kLast =
        static_cast<int>(TraceEventKind::DupSuppress);
    for (int k = 0; k <= kLast; ++k) {
        const auto kind = static_cast<TraceEventKind>(k);
        if (std::string_view(traceEventKindName(kind)) == name) {
            out = kind;
            return true;
        }
    }
    return false;
}

TraceRecorder::TraceRecorder(const TraceParams &params)
    : params_(params)
{
    NOX_ASSERT(params.capacity > 0, "trace ring needs capacity");
    ring_.resize(params.capacity);
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::vector<TraceEvent> out;
    const std::size_t n = size();
    out.reserve(n);
    // Oldest event: at head_ once wrapped, at 0 before.
    const std::size_t start = total_ < ring_.size() ? 0 : head_;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

namespace {

void
writeEventJson(std::ostream &os, const TraceEvent &e)
{
    os << "{\"c\":" << e.cycle << ",\"k\":\""
       << traceEventKindName(e.kind) << "\",\"n\":" << e.node
       << ",\"nic\":" << (e.nic ? 1 : 0)
       << ",\"p\":" << static_cast<int>(e.port) << ",\"id\":" << e.id
       << ",\"a\":" << e.arg << "}\n";
}

} // namespace

bool
TraceRecorder::triggerFlightDump(const std::string &reason,
                                 const std::vector<NodeId> &implicated)
{
    if (dumped_)
        return false; // keep the evidence of the *first* failure
    dumped_ = true;
    dumpReason_ = reason;
    if (params_.flightPath.empty())
        return false;

    std::ofstream out(params_.flightPath);
    if (!out) {
        warn("flight recorder: cannot write ", params_.flightPath);
        return false;
    }
    const std::vector<TraceEvent> events = snapshot();
    out << "{\"flight_recorder\":\"" << reason << "\",\"cycle\":" << now_
        << ",\"events\":" << events.size() << ",\"first_cycle\":"
        << (events.empty() ? now_ : events.front().cycle)
        << ",\"last_cycle\":"
        << (events.empty() ? now_ : events.back().cycle)
        << ",\"implicated\":[";
    for (std::size_t i = 0; i < implicated.size(); ++i)
        out << (i ? "," : "") << implicated[i];
    out << "]}\n";
    for (const TraceEvent &e : events)
        writeEventJson(out, e);
    inform("flight recorder: ", reason, " -> wrote ", events.size(),
           " event(s) to ", params_.flightPath);
    return true;
}

template <typename Ar, typename Self>
void
TraceRecorder::layout(Ar &ar, Self &self)
{
    snap::tag(ar, snap::fourcc("TRCR"));
    const std::size_t cap = self.ring_.size();
    snap::ioExpect(ar, std::uint64_t{cap},
                   "trace ring capacity mismatch (wrong geometry)");
    snap::fields(ar, self.total_, self.now_, self.dumped_, self.dumpReason_);
    if constexpr (Ar::kReading) {
        self.ring_.assign(cap, TraceEvent{});
        // head_ always equals total_ % capacity (both start at zero and
        // advance in lockstep), so slot positions reconstruct exactly.
        self.head_ = static_cast<std::size_t>(self.total_ % cap);
    }
    // Held events only, oldest first (at head_ once wrapped, at 0
    // before); empty slots of a not-yet-full ring stay default.
    const std::size_t start = self.total_ < cap ? 0 : self.head_;
    for (std::size_t i = 0; i < self.size(); ++i) {
        auto &e = self.ring_[(start + i) % cap];
        snap::fields(ar, e.cycle, e.id, e.arg, e.node);
        snap::ioBounded(ar, e.port, INT8_MIN, INT8_MAX,
                        "trace event port out of range");
        snap::ioEnum(ar, e.kind, TraceEventKind::DupSuppress);
        snap::io(ar, e.nic);
    }
}

void
TraceRecorder::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
TraceRecorder::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
