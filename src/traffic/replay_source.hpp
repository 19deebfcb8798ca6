/**
 * @file
 * Trace replay: converts nanosecond-domain packet events into cycle-
 * domain injections for a network running at its own clock period —
 * the paper's asynchronous-clock-domain methodology (§5.2): the same
 * trace drives every router design, each at its maximum frequency.
 */

#ifndef NOX_TRAFFIC_REPLAY_SOURCE_HPP
#define NOX_TRAFFIC_REPLAY_SOURCE_HPP

#include <vector>

#include "noc/traffic_source.hpp"
#include "traffic/trace.hpp"

namespace nox {

/**
 * A single source object injecting the whole trace (any src node) —
 * add exactly one per Network.
 */
class ReplaySource : public TrafficSource
{
  public:
    /**
     * @param records time-sorted records for ONE physical network
     * @param clock_period_ns this network's clock period
     * @param link_bytes flit width in bytes (Table 1: 8)
     */
    ReplaySource(std::vector<TraceRecord> records,
                 double clock_period_ns, std::uint32_t link_bytes = 8);

    /** Due at the cycle of the next record. */
    Cycle tick(Cycle now, PacketInjector &inj) override;

    void serialize(snap::Writer &w, Cycle clock) const override;
    void restore(snap::Reader &r) override;

    /** All records consumed? */
    bool done() const { return next_ >= records_.size(); }

  private:
    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    std::vector<TraceRecord> records_;
    double periodNs_;
    std::uint32_t linkBytes_;
    std::size_t next_ = 0;
};

} // namespace nox

#endif // NOX_TRAFFIC_REPLAY_SOURCE_HPP
