#include "obs/metrics.hpp"

#include <fstream>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

MetricsSampler::MetricsSampler(const MetricsParams &params,
                               int num_routers)
    : params_(params), numRouters_(num_routers)
{
    NOX_ASSERT(params.interval > 0, "metrics interval must be > 0");
    NOX_ASSERT(num_routers > 0, "metrics need at least one router");
}

void
MetricsSampler::recordWindow(Cycle end,
                             std::vector<RouterWindowSample> routers,
                             int active_routers, int active_nics)
{
    NOX_ASSERT(routers.size() ==
                   static_cast<std::size_t>(numRouters_),
               "router sample arity mismatch");
    MetricsWindow w;
    w.start = windowStart_;
    w.end = end;
    w.flitsEjected = openEjected_;
    w.flitsEjectedMeasured = openEjectedMeasured_;
    w.activeRouters = active_routers;
    w.activeNics = active_nics;
    w.routers = std::move(routers);
    windows_.push_back(std::move(w));

    windowStart_ = end;
    openEjected_ = 0;
    openEjectedMeasured_ = 0;
}

std::uint64_t
MetricsSampler::totalEjected() const
{
    std::uint64_t t = openEjected_; // anything not yet flushed
    for (const MetricsWindow &w : windows_)
        t += w.flitsEjected;
    return t;
}

std::uint64_t
MetricsSampler::totalEjectedMeasured() const
{
    std::uint64_t t = openEjectedMeasured_;
    for (const MetricsWindow &w : windows_)
        t += w.flitsEjectedMeasured;
    return t;
}

bool
MetricsSampler::writeJsonl(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("metrics: cannot write ", path);
        return false;
    }
    for (const MetricsWindow &w : windows_) {
        out << "{\"start\":" << w.start << ",\"end\":" << w.end
            << ",\"flits_ejected\":" << w.flitsEjected
            << ",\"flits_ejected_measured\":" << w.flitsEjectedMeasured
            << ",\"active_routers\":" << w.activeRouters
            << ",\"active_nics\":" << w.activeNics << ",\"routers\":[";
        for (std::size_t r = 0; r < w.routers.size(); ++r) {
            const RouterWindowSample &s = w.routers[r];
            out << (r ? "," : "") << "{\"occ\":" << s.bufferedFlits
                << ",\"link\":" << s.linkFlits
                << ",\"coll\":" << s.xorCollisions
                << ",\"retry\":" << s.retryPending
                << ",\"active\":" << (s.active ? 1 : 0) << "}";
        }
        out << "]}\n";
    }
    inform("metrics: wrote ", windows_.size(), " window(s) to ", path);
    return true;
}

double
MetricsSampler::meanLinkUtilization(NodeId router) const
{
    std::uint64_t flits = 0;
    Cycle cycles = 0;
    for (const MetricsWindow &w : windows_) {
        flits += w.routers[static_cast<std::size_t>(router)].linkFlits;
        cycles += w.end - w.start;
    }
    return cycles ? static_cast<double>(flits) /
                        static_cast<double>(cycles)
                  : 0.0;
}

Table
MetricsSampler::heatmapTable(int width, int height) const
{
    std::vector<std::string> headers;
    headers.push_back("y\\x");
    for (int x = 0; x < width; ++x)
        headers.push_back(std::to_string(x));
    Table t(std::move(headers));
    for (int y = 0; y < height; ++y) {
        std::vector<std::string> row;
        row.push_back(std::to_string(y));
        for (int x = 0; x < width; ++x) {
            const NodeId r = static_cast<NodeId>(y * width + x);
            row.push_back(
                r < numRouters_
                    ? Table::num(meanLinkUtilization(r), 3)
                    : "-");
        }
        t.addRow(std::move(row));
    }
    return t;
}

void
MetricsSampler::serialize(snap::Writer &w) const
{
    snap::tag(w, snap::fourcc("METR"));
    w.i32(numRouters_);
    w.u64(windowStart_);
    w.u64(openEjected_);
    w.u64(openEjectedMeasured_);
    w.u64(windows_.size());
    for (const MetricsWindow &win : windows_) {
        w.u64(win.start);
        w.u64(win.end);
        w.u64(win.flitsEjected);
        w.u64(win.flitsEjectedMeasured);
        w.i32(win.activeRouters);
        w.i32(win.activeNics);
        w.u64(win.routers.size());
        for (const RouterWindowSample &s : win.routers) {
            w.u32(s.bufferedFlits);
            w.u32(s.linkFlits);
            w.u32(s.xorCollisions);
            w.u32(s.retryPending);
            w.boolean(s.active);
        }
    }
}

void
MetricsSampler::restore(snap::Reader &r)
{
    snap::checkTag(r, snap::fourcc("METR"));
    if (r.i32() != numRouters_)
        r.fail("metrics router-count mismatch (wrong geometry)");
    windowStart_ = r.u64();
    openEjected_ = r.u64();
    openEjectedMeasured_ = r.u64();
    windows_.clear();
    const std::size_t nwin = r.count(48); // bytes per empty window
    windows_.reserve(nwin);
    for (std::size_t i = 0; i < nwin; ++i) {
        MetricsWindow win;
        win.start = r.u64();
        win.end = r.u64();
        win.flitsEjected = r.u64();
        win.flitsEjectedMeasured = r.u64();
        win.activeRouters = r.i32();
        win.activeNics = r.i32();
        win.routers.resize(r.count(17)); // bytes per sample
        for (RouterWindowSample &s : win.routers) {
            s.bufferedFlits = r.u32();
            s.linkFlits = r.u32();
            s.xorCollisions = r.u32();
            s.retryPending = r.u32();
            s.active = r.boolean();
        }
        windows_.push_back(std::move(win));
    }
}

} // namespace nox
