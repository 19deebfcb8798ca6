#include "traffic/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/log.hpp"
#include "noc/flit.hpp"

namespace nox {

namespace {

/** Largest packet a trace record may carry: kMaxPacketFlits 8-byte
 *  flits (Table 1's link width). */
constexpr long long kMaxPacketBytes = kMaxPacketFlits * 8LL;

} // namespace

std::vector<TraceRecord>
Trace::forNetwork(std::uint8_t net) const
{
    std::vector<TraceRecord> out;
    for (const auto &r : records) {
        if (r.network == net)
            out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.timeNs < b.timeNs;
                     });
    return out;
}

double
Trace::bytesPerNsPerNode(int num_nodes, std::uint8_t net) const
{
    if (durationNs <= 0.0 || num_nodes <= 0)
        return 0.0;
    double bytes = 0.0;
    for (const auto &r : records) {
        if (r.network == net)
            bytes += r.sizeBytes;
    }
    return bytes / durationNs / num_nodes;
}

void
writeTrace(std::ostream &os, const Trace &trace)
{
    // Times print at round-trip precision, so a trace read back from
    // a file replays exactly like the one that was written.
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "# noxsim packet trace: " << trace.name << '\n';
    os << "# duration_ns " << trace.durationNs << '\n';
    os << "# time_ns src dst size_bytes network class\n";
    for (const auto &r : trace.records) {
        os << r.timeNs << ' ' << r.src << ' ' << r.dst << ' '
           << r.sizeBytes << ' ' << static_cast<int>(r.network) << ' '
           << static_cast<int>(r.cls) << '\n';
    }
}

void
writeTraceFile(const std::string &path, const Trace &trace)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file for writing: ", path);
    writeTrace(out, trace);
}

Trace
readTrace(std::istream &is, const std::string &name)
{
    Trace trace;
    trace.name = name;
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream hs(line.substr(1));
            std::string key;
            hs >> key;
            if (key == "duration_ns" &&
                (!(hs >> trace.durationNs) ||
                 !std::isfinite(trace.durationNs) ||
                 trace.durationNs < 0.0)) {
                fatal("bad trace line ", lineno,
                      ": duration_ns must be finite and non-negative: '",
                      line, "'");
            }
            continue;
        }
        std::istringstream ls(line);
        TraceRecord r;
        long long size = 0;
        int network = 0;
        int cls = 0;
        std::string extra;
        if (!(ls >> r.timeNs >> r.src >> r.dst >> size >> network >>
              cls) ||
            ls >> extra) {
            fatal("malformed trace line ", lineno, ": '", line, "'");
        }
        std::string bad;
        if (!std::isfinite(r.timeNs) || r.timeNs < 0.0)
            bad = "time_ns must be finite and non-negative";
        else if (size < 1 || size > kMaxPacketBytes)
            bad = "size_bytes must be in 1.." +
                  std::to_string(kMaxPacketBytes);
        else if (network != 0 && network != 1)
            bad = "network must be 0 (request) or 1 (reply)";
        else if (cls < 0 || cls > static_cast<int>(TrafficClass::Reply))
            bad = "class must be 0 (synthetic), 1 (request) or 2 (reply)";
        if (!bad.empty())
            fatal("bad trace line ", lineno, ": ", bad, ": '", line, "'");
        r.sizeBytes = static_cast<std::uint32_t>(size);
        r.network = static_cast<std::uint8_t>(network);
        r.cls = static_cast<TrafficClass>(cls);
        trace.records.push_back(r);
    }
    std::stable_sort(trace.records.begin(), trace.records.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.timeNs < b.timeNs;
                     });
    if (trace.durationNs == 0.0 && !trace.records.empty())
        trace.durationNs = trace.records.back().timeNs;
    return trace;
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: ", path);
    return readTrace(in, path);
}

} // namespace nox
