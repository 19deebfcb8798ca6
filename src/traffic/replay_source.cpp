#include "traffic/replay_source.hpp"

#include <cmath>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

ReplaySource::ReplaySource(std::vector<TraceRecord> records,
                           double clock_period_ns,
                           std::uint32_t link_bytes)
    : records_(std::move(records)), periodNs_(clock_period_ns),
      linkBytes_(link_bytes)
{
    NOX_ASSERT(clock_period_ns > 0.0, "invalid clock period");
    for (std::size_t i = 1; i < records_.size(); ++i) {
        NOX_ASSERT(records_[i - 1].timeNs <= records_[i].timeNs,
                   "replay trace must be time-sorted");
    }
}

Cycle
ReplaySource::tick(Cycle now, PacketInjector &inj)
{
    while (next_ < records_.size()) {
        const TraceRecord &r = records_[next_];
        const Cycle due = static_cast<Cycle>(
            std::ceil(r.timeNs / periodNs_));
        if (due > now)
            return due;
        if (r.src != r.dst) {
            inj.injectPacket(r.src, r.dst, r.flits(linkBytes_), now,
                             r.cls);
        }
        ++next_;
    }
    return kNeverDue;
}


template <typename Ar, typename Self>
void
ReplaySource::layout(Ar &ar, Self &self)
{
    snap::io(ar, self.next_);
    snap::check(ar, self.next_ <= self.records_.size(),
                "replay cursor past end of trace");
}

void
ReplaySource::serialize(snap::Writer &w, Cycle) const
{
    layout(w, *this);
}

void
ReplaySource::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
