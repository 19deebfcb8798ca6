/**
 * @file
 * Flight-recorder tracing: a fixed-capacity ring buffer of TraceEvents.
 *
 * The recorder is deliberately passive: components call record() on
 * the hot path (a struct store into a preallocated ring — no
 * allocation, no I/O, no stats mutation), and everything expensive
 * (snapshotting, JSONL/Chrome export) happens off the cycle loop.
 * Because recording never touches simulator state, RNGs or stats,
 * enabling it cannot perturb a run: the observer-effect determinism
 * test asserts bit-identical NetworkStats with tracing on and off.
 *
 * Flight dumps: the first triggerFlightDump() call (drain timeout,
 * decode fault, corrupted delivery) writes the entire ring — the last
 * `capacity` events, which for any sanely sized ring spans well over
 * the last thousand cycles of activity around the failure — to a JSONL
 * file, turning a terse failure report into replayable evidence.
 */

#ifndef NOX_OBS_TRACE_RECORDER_HPP
#define NOX_OBS_TRACE_RECORDER_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"

namespace nox {

namespace snap {
class Writer;
class Reader;
} // namespace snap

/** Largest ring a configured run may ask for: 4 Mi events, 128 MiB. */
inline constexpr std::size_t kMaxTraceCapacity = std::size_t{1} << 22;

/** Tracing configuration (see obsParamsFromConfig for the keys). */
struct TraceParams
{
    bool enabled = false;

    /** Ring capacity in events (each 32 bytes). */
    std::size_t capacity = 1u << 16;

    /** Chrome trace_event JSON export path ("" = no export). */
    std::string chromePath;

    /** Flight-recorder dump path ("" = triggers are still latched,
     *  for tests, but no file is written). */
    std::string flightPath = "nox-flight.jsonl";

    /** Dump the ring at end of run even without a failure trigger
     *  (deterministic input for offline `trace_tool analyze`). */
    bool flightOnExit = false;
};

/** A flight dump: one header line (the trigger's reason and cycle, the
 *  event count, the cycles covered, the implicated components), then
 *  one line per event, oldest first. */
struct FlightDump
{
    std::string reason;          ///< what triggered the dump
    Cycle dumpCycle = 0;         ///< cycle the dump was taken
    Cycle firstCycle = 0;        ///< oldest event's cycle
    Cycle lastCycle = 0;         ///< newest event's cycle
    std::vector<NodeId> implicated; ///< components named by the trigger
    std::vector<TraceEvent> events;
};

/**
 * Parse a flight dump written by TraceRecorder::triggerFlightDump.
 * Returns false (with @p error naming `path:line` and the key) on an
 * unreadable file, a malformed line, or fewer or more event lines
 * than the header declares. Events of a kind this build does not know
 * are skipped (forward compatibility).
 */
bool loadFlightDump(const std::string &path, FlightDump &out,
                    std::string &error);

/** Ring-buffer event recorder shared by one Network's components. */
class TraceRecorder
{
  public:
    explicit TraceRecorder(const TraceParams &params);

    const TraceParams &params() const { return params_; }

    /** Stamp the cycle for all events recorded until the next call
     *  (the Network calls this once at the top of every step()). */
    void beginCycle(Cycle now) { now_ = now; }
    Cycle now() const { return now_; }

    /** Record one event (hot path: branch-free ring store). */
    void
    record(TraceEventKind kind, NodeId node, int port, std::uint64_t id,
           std::uint32_t arg = 0, bool nic = false)
    {
        TraceEvent &e = ring_[head_];
        e.cycle = now_;
        e.id = id;
        e.arg = arg;
        e.node = node;
        e.port = static_cast<std::int8_t>(port);
        e.kind = kind;
        e.nic = nic;
        if (++head_ == ring_.size())
            head_ = 0;
        ++total_;
    }

    /** Events ever recorded (wrapped events are still counted). */
    std::uint64_t totalRecorded() const { return total_; }

    /** Events currently held in the ring. */
    std::size_t
    size() const
    {
        return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                     : ring_.size();
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Held events, oldest first (allocates; not for the hot path). */
    std::vector<TraceEvent> snapshot() const;

    /**
     * Latch a flight-recorder trigger and, on the first trigger only,
     * dump the ring to params().flightPath as JSONL (a header object
     * naming the reason, trigger cycle and implicated components,
     * then one event per line, oldest first). Returns true if a file
     * was written by this call.
     */
    bool triggerFlightDump(const std::string &reason,
                           const std::vector<NodeId> &implicated);

    bool flightDumped() const { return dumped_; }
    const std::string &flightReason() const { return dumpReason_; }

    /** Write the ring as Chrome trace_event JSON (see chrome_trace). */
    bool writeChromeTrace(const std::string &path, int mesh_width,
                          int concentration) const;

    /** Capture / restore ring contents and dump latch (checkpointing).
     *  Ring capacity is construction geometry; restore() checks it. */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    TraceParams params_;
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;
    std::uint64_t total_ = 0;
    Cycle now_ = 0;

    bool dumped_ = false;
    std::string dumpReason_;
};

} // namespace nox

#endif // NOX_OBS_TRACE_RECORDER_HPP
