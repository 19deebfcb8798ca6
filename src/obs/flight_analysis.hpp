/**
 * @file
 * Offline analysis of flight-recorder JSONL dumps.
 *
 * The flight recorder (trace_recorder.hpp) dumps its ring as one JSON
 * header line followed by one JSON object per event, and
 * loadFlightDump() parses it back. This module reconstructs
 * per-packet timelines (create -> inject -> per-hop sends -> eject ->
 * done) by grouping flit-scope events through the invertible
 * `flitUid = (packet << 8) | seq` encoding, and ranks the slowest
 * packets with their critical (longest-stalled) hop and a dominant
 * stall cause inferred from co-located protection/recovery events.
 *
 * Every reconstructed latency is cross-checked against the latency the
 * simulator itself reported online (PacketDone's arg carries
 * `done_cycle - create_cycle`), making the analyzer self-validating:
 * a mismatch means the dump, the parser, or the simulator is wrong.
 *
 * Used by `trace_tool analyze` and the observability test suite.
 */

#ifndef NOX_OBS_FLIGHT_ANALYSIS_HPP
#define NOX_OBS_FLIGHT_ANALYSIS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_recorder.hpp"

namespace nox {

/** One observed step of a packet's head flit through the mesh. */
struct TimelineHop
{
    Cycle cycle = 0;
    TraceEventKind kind = TraceEventKind::FlitInject;
    NodeId node = kInvalidNode;
    bool nic = false;
    int port = -1;
};

/**
 * A packet's reconstructed lifecycle. Only packets whose PacketCreate
 * survived in the ring have src/dest/numFlits; only those whose
 * PacketDone survived have a reconstructed latency. The dump is a
 * bounded ring, so partial timelines are expected and reported as
 * such rather than dropped.
 */
struct PacketTimeline
{
    PacketId packet = kInvalidPacket;
    bool haveCreate = false;
    bool haveDone = false;
    Cycle createCycle = 0;
    Cycle doneCycle = 0;
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    std::uint32_t numFlits = 0;
    /** E2E timeout retransmissions folded into this timeline: every
     *  attempt travels as its own wire packet (attemptPacket), and
     *  the analyzer groups them back under the base id. */
    std::uint32_t e2eRetransmits = 0;
    /** Latency the simulator reported online (PacketDone arg + 1). */
    std::uint64_t reportedLatency = 0;
    /** Head-flit movement events (inject/send/decode/eject), sorted. */
    std::vector<TimelineHop> hops;

    /** End-to-end latency reconstructed from the dump alone (valid
     *  iff haveCreate && haveDone; same +1 convention as
     *  NetworkStats). */
    std::uint64_t latency() const
    {
        return doneCycle - createCycle + 1;
    }

    /** True when the offline reconstruction matches the online
     *  report (or the timeline is too partial to check). */
    bool consistent() const
    {
        return !(haveCreate && haveDone) ||
               latency() == reportedLatency;
    }
};

/** Group a dump's flit/packet events into per-packet timelines,
 *  sorted by packet id. */
std::vector<PacketTimeline> buildTimelines(const FlightDump &dump);

/** A slow packet with its critical hop and inferred dominant cause. */
struct SlowPacket
{
    PacketId packet = kInvalidPacket;
    std::uint64_t latency = 0;
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    /** The longest inter-event gap in the timeline. */
    Cycle stallStart = 0;
    Cycle stallEnd = 0;
    NodeId stallNode = kInvalidNode;
    bool stallNic = false;
    /** E2E timeout retransmissions of this packet (from timeline). */
    std::uint32_t e2eRetransmits = 0;
    /** Dominant stall cause: "e2e_timeout" (this packet was E2E-
     *  retransmitted inside the stall window — the loss was end-to-
     *  end, not repaired at link level), "source_queueing",
     *  "retransmission" (link-level nack/CRC recovery),
     *  "xor_recovery", "reroute" or "arbitration_or_credit". */
    std::string cause;
};

/**
 * The top @p k slowest *complete* timelines (create and done both in
 * the ring), each annotated with its critical hop and the dominant
 * cause inferred from dump events co-located with the stall window.
 */
std::vector<SlowPacket> slowestPackets(
    const FlightDump &dump,
    const std::vector<PacketTimeline> &timelines, std::size_t k);

} // namespace nox

#endif // NOX_OBS_FLIGHT_ANALYSIS_HPP
