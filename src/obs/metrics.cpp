#include "obs/metrics.hpp"

#include <fstream>

#include "common/log.hpp"
#include "obs/jsonl.hpp"
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
    jsonl::Writer w(out);
    for (const MetricsWindow &win : windows_) {
        w.record([&] {
            w.field("start", win.start);
            w.field("end", win.end);
            w.field("flits_ejected", win.flitsEjected);
            w.field("flits_ejected_measured", win.flitsEjectedMeasured);
            w.field("active_routers", win.activeRouters);
            w.field("active_nics", win.activeNics);
            w.objects("routers", win.routers,
                      [&](const RouterWindowSample &s) {
                          w.field("occ", s.bufferedFlits);
                          w.field("link", s.linkFlits);
                          w.field("coll", s.xorCollisions);
                          w.field("retry", s.retryPending);
                          w.field("active", s.active);
                      });
        });
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

template <typename Ar, typename Self>
void
MetricsSampler::layout(Ar &ar, Self &self)
{
    snap::tag(ar, snap::fourcc("METR"));
    snap::ioExpect(ar, self.numRouters_,
                   "metrics router-count mismatch (wrong geometry)");
    snap::fields(ar, self.windowStart_, self.openEjected_,
                 self.openEjectedMeasured_);
    snap::ioSeq(ar, self.windows_, 48, [](auto &a, auto &win) {
        snap::fields(a, win.start, win.end, win.flitsEjected,
                     win.flitsEjectedMeasured, win.activeRouters,
                     win.activeNics);
        snap::ioSeq(a, win.routers, 17, [](auto &b, auto &s) {
            snap::fields(b, s.bufferedFlits, s.linkFlits, s.xorCollisions,
                         s.retryPending, s.active);
        });
    });
}

void
MetricsSampler::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
MetricsSampler::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
