/**
 * @file
 * Observability configuration: tracing + metrics, parsed from the
 * shared key=value Config so every tool (noxsim, nettest, benches)
 * accepts the same `trace_*` / `metrics_*` knobs.
 */

#ifndef NOX_OBS_OBS_PARAMS_HPP
#define NOX_OBS_OBS_PARAMS_HPP

#include "obs/digest.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_recorder.hpp"

namespace nox {

class Config;

/** Combined observability switchboard for one Network. */
struct ObsParams
{
    TraceParams trace;
    MetricsParams metrics;
    ProvenanceParams prov;
    ProfilerParams profile;
    TelemetryParams telemetry;
    DigestParams digest;

    bool
    any() const
    {
        return trace.enabled || metrics.enabled || prov.enabled ||
               profile.enabled || telemetry.enabled || digest.enabled;
    }
};

/**
 * Read the observability keys from @p config:
 *   trace=            master switch for event tracing (default false)
 *   trace_capacity=   ring size in events (1..kMaxTraceCapacity, 65536)
 *   trace_file=       Chrome trace_event JSON export path; setting it
 *                     implies trace=true (default: no export)
 *   trace_flight_file= flight-recorder dump path (default
 *                     nox-flight.jsonl; "" disables the file write)
 *   trace_flight_on_exit= also dump the ring at end of run without a
 *                     failure trigger (for offline `trace_tool
 *                     analyze`); implies trace=true (default false)
 *   metrics=          master switch for time-series sampling
 *   metrics_interval= cycles per sampling window (1 or more, 256)
 *   metrics_file=     JSONL export path; setting it implies
 *                     metrics=true (default nox-metrics.jsonl)
 *   metrics_heatmap=  print the link-utilization heatmap (default
 *                     true when metrics are enabled)
 *   provenance=       master switch for per-packet latency
 *                     provenance (default false)
 *   provenance_file=  JSONL export path for the aggregated latency
 *                     breakdowns; setting it implies provenance=true
 *                     (default: no export)
 *   profile=          master switch for the simulator self-profiler
 *                     (phase timers + per-router work; default false)
 *   profile_file=     profile JSONL export path; setting it implies
 *                     profile=true (default: no export)
 *   telemetry=        master switch for the run-telemetry heartbeat
 *                     (default false)
 *   telemetry_interval= cycles between heartbeats (1 or more, 50000)
 *   telemetry_file=   heartbeat JSONL export path; setting it
 *                     implies telemetry=true (default: no export)
 *   progress=         mirror a one-line heartbeat to stderr; implies
 *                     telemetry=true (tools also accept --progress)
 *   digest=           master switch for the state-digest ledger
 *                     (default false)
 *   digest_interval=  cycles between ledger strides (1 or more, 1000)
 *   digest_file=      JSONL ledger export path; setting it implies
 *                     digest=true (default: in-memory only)
 * Fatal, naming the key, on a value out of range.
 */
ObsParams obsParamsFromConfig(const Config &config);

} // namespace nox

#endif // NOX_OBS_OBS_PARAMS_HPP
