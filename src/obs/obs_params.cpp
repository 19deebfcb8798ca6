#include "obs/obs_params.hpp"

#include "common/config.hpp"

namespace nox {

ObsParams
obsParamsFromConfig(const Config &config)
{
    ObsParams obs;

    obs.trace.enabled =
        config.getBool("trace", false) || config.has("trace_file");
    obs.trace.capacity = config.getUint(
        "trace_capacity", obs.trace.capacity, 1, kMaxTraceCapacity);
    obs.trace.chromePath = config.getString("trace_file", "");
    obs.trace.flightPath =
        config.getString("trace_flight_file", obs.trace.flightPath);
    obs.trace.flightOnExit =
        config.getBool("trace_flight_on_exit", false);
    if (obs.trace.flightOnExit)
        obs.trace.enabled = true;

    obs.metrics.enabled =
        config.getBool("metrics", false) || config.has("metrics_file");
    obs.metrics.interval =
        config.getUint("metrics_interval", obs.metrics.interval, 1);
    obs.metrics.jsonlPath =
        config.getString("metrics_file", "nox-metrics.jsonl");
    obs.metrics.heatmap =
        config.getBool("metrics_heatmap", obs.metrics.heatmap);

    obs.prov.enabled = config.getBool("provenance", false) ||
                       config.has("provenance_file");
    obs.prov.jsonlPath = config.getString("provenance_file", "");

    obs.profile.enabled = config.getBool("profile", false) ||
                          config.has("profile_file");
    obs.profile.jsonlPath = config.getString("profile_file", "");

    obs.telemetry.progress = config.getBool("progress", false);
    obs.telemetry.enabled = config.getBool("telemetry", false) ||
                            config.has("telemetry_file") ||
                            obs.telemetry.progress;
    obs.telemetry.interval = config.getUint(
        "telemetry_interval", obs.telemetry.interval, 1);
    obs.telemetry.jsonlPath = config.getString("telemetry_file", "");

    obs.digest.enabled = config.getBool("digest", false) ||
                         config.has("digest_file");
    obs.digest.interval =
        config.getUint("digest_interval", obs.digest.interval, 1);
    obs.digest.jsonlPath = config.getString("digest_file", "");

    return obs;
}

} // namespace nox
