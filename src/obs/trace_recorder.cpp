#include "obs/trace_recorder.hpp"

#include <fstream>
#include <string_view>

#include "common/log.hpp"
#include "obs/jsonl.hpp"
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

/** The dump's header line; @p events is the event-line count. */
template <typename Ar, typename D>
void
headerLayout(Ar &ar, D &d, std::uint64_t &events)
{
    ar.field("flight_recorder", d.reason);
    ar.field("cycle", d.dumpCycle);
    ar.field("events", events);
    ar.field("first_cycle", d.firstCycle);
    ar.field("last_cycle", d.lastCycle);
    ar.field("implicated", d.implicated);
}

/** One event line. A load clears @p known for a kind this build
 *  cannot name; the name must still look like one (snake_case). */
template <typename Ar, typename E>
void
eventLayout(Ar &ar, E &e, bool &known)
{
    ar.field("c", e.cycle);
    std::string kind = Ar::kReading ? "" : traceEventKindName(e.kind);
    ar.field("k", kind);
    if constexpr (Ar::kReading) {
        known = parseTraceEventKind(kind.c_str(), e.kind);
        ar.check(known || (!kind.empty() &&
                           kind.find_first_not_of(
                               "abcdefghijklmnopqrstuvwxyz0123456789_") ==
                               std::string::npos),
                 "k", "is not an event kind name");
    }
    ar.field("n", e.node);
    ar.field("nic", e.nic);
    ar.field("p", e.port);
    ar.field("id", e.id);
    ar.field("a", e.arg);
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
    FlightDump dump{reason, now_, now_, now_, implicated, snapshot()};
    if (!dump.events.empty()) {
        dump.firstCycle = dump.events.front().cycle;
        dump.lastCycle = dump.events.back().cycle;
    }
    std::uint64_t events = dump.events.size();
    jsonl::Writer w(out);
    w.record([&] { headerLayout(w, dump, events); });
    bool known = true;
    for (const TraceEvent &e : dump.events)
        w.record([&] { eventLayout(w, e, known); });
    inform("flight recorder: ", reason, " -> wrote ", events,
           " event(s) to ", params_.flightPath);
    return true;
}

bool
loadFlightDump(const std::string &path, FlightDump &out,
               std::string &error)
{
    out = FlightDump{};
    return jsonl::load(path, error, [&](jsonl::Reader &r) {
        if (!r.next())
            r.fail("flight_recorder", "no header line", 1);
        const std::size_t header = r.line();
        std::uint64_t declared = 0;
        r.record([&] { headerLayout(r, out, declared); });
        std::uint64_t lines = 0;
        while (r.next()) {
            TraceEvent e;
            bool known = false;
            r.record([&] { eventLayout(r, e, known); });
            ++lines;
            if (known)
                out.events.push_back(e);
        }
        if (lines != declared) {
            r.fail("events",
                   "the header declares " + std::to_string(declared) +
                       " events but " + std::to_string(lines) +
                       " event lines follow (a cut dump?)",
                   header);
        }
    });
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
