/**
 * @file
 * CMP coherence-traffic trace generator (the substrate behind the
 * paper's §5.2 application evaluation).
 *
 * A 64-core tiled CMP is modelled at transaction granularity: each
 * in-order 3 GHz core issues a synthetic memory-reference stream
 * through private L1/L2 caches; L2 misses become directory (MSI)
 * transactions whose messages are emitted as timestamped packets on
 * two physical networks — requests (GetS/GetM/Inv/Fwd control and
 * writeback data) and replies (data and acks) — with the paper's
 * 8-byte control / 72-byte data packet sizes.
 *
 * Cores block on misses, so the generated traffic self-throttles like
 * real applications; the timestamps depend only on CPU-side
 * parameters, so the same trace replays identically into every router
 * architecture (constant injection bandwidth, §5.2).
 */

#ifndef NOX_COHERENCE_TRACE_GENERATOR_HPP
#define NOX_COHERENCE_TRACE_GENERATOR_HPP

#include <memory>
#include <vector>

#include "coherence/cache.hpp"
#include "coherence/cmp_params.hpp"
#include "coherence/directory.hpp"
#include "coherence/workload.hpp"
#include "noc/topology.hpp"
#include "traffic/trace.hpp"

namespace nox {

/** Aggregate behaviour counters of one generation run. */
struct TraceGenStats
{
    std::uint64_t memOps = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t getS = 0;
    std::uint64_t getM = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t forwards = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t ctrlPackets = 0;
    std::uint64_t dataPackets = 0;
};

/** Generates an application packet trace from a workload profile. */
class CoherenceTraceGenerator
{
  public:
    CoherenceTraceGenerator(const CmpParams &params,
                            const WorkloadProfile &profile,
                            std::uint64_t seed);
    ~CoherenceTraceGenerator();

    /**
     * Run all cores until @p warmup_ns + @p horizon_ns of CPU time
     * has elapsed. Packets emitted during the warmup (cold caches)
     * are counted in stats() but not kept; the remainder are re-based
     * to time zero so the trace reflects steady-state cache
     * behaviour.
     */
    Trace generate(double horizon_ns, double warmup_ns = 0.0);

    const TraceGenStats &stats() const { return stats_; }
    const CmpParams &params() const { return params_; }

  private:
    struct Core;

    /** Process one memory operation of @p core at its local time. */
    void processOp(Core &core);

    /** L2-miss coherence transaction; returns its latency [ns]. */
    double transaction(Core &core, std::uint64_t line, bool write);

    /** Fill @p line into the core's L2+L1, handling evictions. */
    double fill(Core &core, std::uint64_t line, bool dirty);

    /** Invalidate a line from a (possibly remote) tile's caches. */
    void invalidateTile(NodeId tile, std::uint64_t line);

    /** One-way message latency estimate [ns]. */
    double msgLatencyNs(NodeId from, NodeId to, int bytes) const;

    /** Count a packet (none when src == dst: tile-local) and keep
     *  it, re-based to the end of the warmup, unless it falls inside
     *  the warmup. */
    void emit(double time_ns, NodeId src, NodeId dst, int bytes,
              std::uint8_t network, TrafficClass cls);

    CmpParams params_;
    const WorkloadProfile &profile_;
    Mesh mesh_;
    Directory directory_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<TraceRecord> records_;
    double warmupNs_ = 0.0;
    TraceGenStats stats_;
};

class Config;

/** The trace of the workload= (default tpcc), seed= (99), horizon_ns=
 *  (25000) and warmup_ns= (50000) keys of @p config on the default
 *  CMP: one reader for `noxsim mode=app` and `trace_tool gen`. */
Trace traceFromConfig(const Config &config);

} // namespace nox

#endif // NOX_COHERENCE_TRACE_GENERATOR_HPP
