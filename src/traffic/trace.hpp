/**
 * @file
 * Packet trace format for application-driven network simulation
 * (§5.2 of the paper: traces are collected once in the CPU clock
 * domain, then replayed identically into each network so that CPU
 * injection bandwidth is constant across router designs).
 *
 * The on-disk format is line-oriented text:
 *     # header comments
 *     <time_ns> <src> <dst> <size_bytes> <network> <class>
 * sorted by time_ns, with times at round-trip (max_digits10)
 * precision.
 */

#ifndef NOX_TRAFFIC_TRACE_HPP
#define NOX_TRAFFIC_TRACE_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "noc/types.hpp"

namespace nox {

/** One packet injection event in CPU (nanosecond) time. */
struct TraceRecord
{
    double timeNs = 0.0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint32_t sizeBytes = 8;
    std::uint8_t network = 0; ///< physical network index (0=req,1=rep)
    TrafficClass cls = TrafficClass::Request;

    /** Flits on a @p link_bytes-wide network (Table 1: 8-byte flits). */
    int
    flits(std::uint32_t link_bytes = 8) const
    {
        return static_cast<int>((sizeBytes + link_bytes - 1) /
                                link_bytes);
    }
};

/** An in-memory packet trace plus its provenance. */
struct Trace
{
    std::string name;
    std::vector<TraceRecord> records;
    double durationNs = 0.0; ///< generation horizon (>= last record)

    /** Records belonging to physical network @p net, time-sorted. */
    std::vector<TraceRecord> forNetwork(std::uint8_t net) const;

    /** Mean offered load over the horizon in bytes/ns/node. */
    double bytesPerNsPerNode(int num_nodes,
                             std::uint8_t net) const;
};

/** Write a trace to a stream / file. */
void writeTrace(std::ostream &os, const Trace &trace);
void writeTraceFile(const std::string &path, const Trace &trace);

/** Read a trace back. Fatal, naming the line, on a malformed line or
 *  a field out of range: a negative or non-finite time or duration,
 *  a size outside 1..2048 bytes (kMaxPacketFlits 8-byte flits), a
 *  network other than 0 or 1, or a class outside TrafficClass. Node
 *  ids and injection cycles are checked by runApplication(). */
Trace readTrace(std::istream &is, const std::string &name = "trace");
Trace readTraceFile(const std::string &path);

} // namespace nox

#endif // NOX_TRAFFIC_TRACE_HPP
