/**
 * @file
 * Periodic per-router time-series metrics.
 *
 * The Network closes a sampling window every `interval` cycles and
 * hands the sampler one RouterWindowSample per router (window deltas
 * of monotonic counters plus instantaneous occupancies) along with the
 * active-set sizes and the window's ejection counts. Samples are
 * buffered in memory and exported at end of run as JSONL (one window
 * per line) and as a width x height heatmap table of mean link
 * utilization — the "where do cycles go" view the paper's figures
 * are built from.
 *
 * Conservation contract (tested): the sum of `flits_ejected` over all
 * windows equals NetworkStats::flitsEjected, and the sum of
 * `flits_ejected_measured` equals NetworkStats::flitsEjectedInWindow.
 */

#ifndef NOX_OBS_METRICS_HPP
#define NOX_OBS_METRICS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "noc/types.hpp"

namespace nox {

namespace snap {
class Writer;
class Reader;
} // namespace snap

/** Metrics configuration (see obsParamsFromConfig for the keys). */
struct MetricsParams
{
    bool enabled = false;
    Cycle interval = 256;    ///< cycles per sampling window
    std::string jsonlPath;   ///< JSONL export path ("" = no export)
    bool heatmap = true;     ///< render the link-utilization heatmap
};

/** One router's contribution to one sampling window. */
struct RouterWindowSample
{
    std::uint32_t bufferedFlits = 0; ///< input-FIFO flits (instant)
    std::uint32_t linkFlits = 0;     ///< mesh-link flits sent (delta)
    std::uint32_t xorCollisions = 0; ///< NoX encoded transfers (delta)
    std::uint32_t retryPending = 0;  ///< occupied retry buffers (inst)
    bool active = false;             ///< in the scheduler active set
};

/** One closed sampling window. */
struct MetricsWindow
{
    Cycle start = 0;
    Cycle end = 0;
    std::uint64_t flitsEjected = 0;
    std::uint64_t flitsEjectedMeasured = 0;
    int activeRouters = 0;
    int activeNics = 0;
    std::vector<RouterWindowSample> routers;
};

/** Buffers windows and renders the exports. */
class MetricsSampler
{
  public:
    MetricsSampler(const MetricsParams &params, int num_routers);

    const MetricsParams &params() const { return params_; }
    Cycle interval() const { return params_.interval; }

    /** True when @p now closes a window (called after ++now). */
    bool
    windowEnds(Cycle now) const
    {
        return now % params_.interval == 0;
    }

    /** Count one ejected flit into the open window (hot path). */
    void
    onFlitEjected(bool measured)
    {
        ++openEjected_;
        if (measured)
            ++openEjectedMeasured_;
    }

    /** Close the window ending at @p end. */
    void recordWindow(Cycle end,
                      std::vector<RouterWindowSample> routers,
                      int active_routers, int active_nics);

    /** True if the open window has accumulated anything (the final
     *  partial window is flushed only when non-degenerate). */
    bool
    openWindowDirty(Cycle now) const
    {
        return now != windowStart_;
    }

    std::size_t numWindows() const { return windows_.size(); }
    const MetricsWindow &window(std::size_t i) const
    {
        return windows_[i];
    }

    /** Sum of per-window ejection counts (conservation checks). */
    std::uint64_t totalEjected() const;
    std::uint64_t totalEjectedMeasured() const;

    /** Write one JSON object per window to @p path. */
    bool writeJsonl(const std::string &path) const;

    /**
     * Mean link utilization per router (mesh-link flits per cycle,
     * summed over the router's mesh outputs), over all windows.
     */
    double meanLinkUtilization(NodeId router) const;

    /** width x height grid of meanLinkUtilization (router r sits at
     *  column r % width, row r / width). */
    Table heatmapTable(int width, int height) const;

    /** Capture / restore closed windows and the open-window
     *  accumulators (checkpointing). */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    MetricsParams params_;
    int numRouters_;
    Cycle windowStart_ = 0;
    std::uint64_t openEjected_ = 0;
    std::uint64_t openEjectedMeasured_ = 0;
    std::vector<MetricsWindow> windows_;
};

} // namespace nox

#endif // NOX_OBS_METRICS_HPP
