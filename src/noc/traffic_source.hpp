/**
 * @file
 * Interfaces decoupling traffic generation from the network model.
 */

#ifndef NOX_NOC_TRAFFIC_SOURCE_HPP
#define NOX_NOC_TRAFFIC_SOURCE_HPP

#include <cstddef>
#include <limits>

#include "noc/types.hpp"

namespace nox {

namespace snap {
class Writer;
class Reader;
} // namespace snap

/** Sink through which traffic sources create packets. */
class PacketInjector
{
  public:
    virtual ~PacketInjector() = default;

    /**
     * Create a packet of @p num_flits flits from @p src to @p dst with
     * creation timestamp @p now and queue it at the source NIC.
     * @return the new packet's id.
     */
    virtual PacketId injectPacket(NodeId src, NodeId dst, int num_flits,
                                  Cycle now, TrafficClass cls) = 0;

    /** Flits currently waiting in @p node's source queue. */
    virtual std::size_t sourceQueueFlits(NodeId node) const = 0;
};

/** The due date of a source that will never act again. */
inline constexpr Cycle kNeverDue = std::numeric_limits<Cycle>::max();

/**
 * A packet generator driven by the network's source calendar. The
 * network ticks a source only at the cycle it last named as due, so a
 * source must name the first cycle at which ticking it could do
 * anything: every cycle it skips would have been a no-op tick. A tick
 * at a cycle before that date changes nothing and names it again.
 *
 * The network pauses and resumes its sources together
 * (Network::setSourcesEnabled, drain()); a paused source is not ticked
 * and makes no draws.
 */
class TrafficSource
{
  public:
    virtual ~TrafficSource() = default;

    /** Act at cycle @p now; @return the next cycle at which the
     *  source can act (after @p now), or kNeverDue. */
    virtual Cycle tick(Cycle now, PacketInjector &inj) = 0;

    /**
     * The sources were paused for @p paused cycles with this source
     * due at @p due. @return its due date now (the network moves a
     * date in the past up to the resume cycle). The default keeps
     * @p due: a source whose dates are absolute cycles catches up at
     * its first tick. A source whose draws count enabled cycles moves
     * its pending dates by @p paused.
     */
    virtual Cycle
    resume(Cycle due, Cycle paused)
    {
        (void)paused;
        return due;
    }

    /** Capture / restore generator state — RNG cursors, burst phase,
     *  replay position (checkpointing). @p clock is the first cycle
     *  whose draws a source ticked every enabled cycle would not have
     *  made yet: the network's now, or the cycle the sources were
     *  paused at. A restored source is due at the restore cycle.
     *  Stateless sources keep the empty defaults. */
    virtual void
    serialize(snap::Writer &w, Cycle clock) const
    {
        (void)w;
        (void)clock;
    }
    virtual void restore(snap::Reader &r) { (void)r; }
};

} // namespace nox

#endif // NOX_NOC_TRAFFIC_SOURCE_HPP
