/**
 * @file
 * Open-loop Bernoulli packet source: the standard injection process
 * for latency-vs-load sweeps (Figure 8/9 of the paper).
 */

#ifndef NOX_TRAFFIC_BERNOULLI_SOURCE_HPP
#define NOX_TRAFFIC_BERNOULLI_SOURCE_HPP

#include "common/rng.hpp"
#include "noc/traffic_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {

/**
 * Injects fixed-size packets with independent per-cycle Bernoulli
 * trials so that the offered load equals @p flits_per_cycle.
 *
 * The trials are those of a source that draws one every enabled cycle
 * (nextBernoulli, then pick() on a success), but drawn ahead: a tick
 * draws the failures up to the next success on the private stream and
 * names that cycle as due, so the network leaves the source alone
 * through the gap. A pause moves the pending success by its length.
 * serialize() writes the stream as the per-cycle source would have it
 * at the clock, by replaying the gap's failed draws on a copy.
 */
class BernoulliSource : public TrafficSource
{
  public:
    /**
     * @param self this source's node
     * @param pattern destination chooser (not owned; outlives source)
     * @param flits_per_cycle offered load in flits/node/cycle
     * @param packet_flits flits per packet (the paper's synthetic
     *        traffic is single-flit)
     * @param seed private RNG seed
     */
    BernoulliSource(NodeId self, const DestinationPattern &pattern,
                    double flits_per_cycle, int packet_flits,
                    std::uint64_t seed);

    Cycle tick(Cycle now, PacketInjector &inj) override;
    Cycle resume(Cycle due, Cycle paused) override;

    void serialize(snap::Writer &w, Cycle clock) const override;
    void restore(snap::Reader &r) override;

    double offeredLoad() const { return flitsPerCycle_; }

  private:
    /** Draw the trials of cycles @p from onward up to the first
     *  success, at most kMaxAhead of them; next_ and armed_ say where
     *  the drawing stopped. */
    void drawAhead(Cycle from);

    /** Pick a destination and inject (a success's outcome). */
    void fire(Cycle now, PacketInjector &inj);

    /** The longest run of trials one tick draws: a gap longer than
     *  this resumes drawing at a tick that injects nothing. */
    static constexpr Cycle kMaxAhead = 4096;

    NodeId self_;
    const DestinationPattern &pattern_;
    double flitsPerCycle_;
    int packetFlits_;
    double packetProb_;
    std::uint64_t threshold_ = 0; ///< Rng::threshold53 of packetProb_
    Rng rng_; ///< drawn through next_'s trial (armed_) or up to it

    /** The stream at the start of cycle lagAt_'s trial; every trial
     *  from lagAt_ up to next_ failed. kNeverDue: nothing is drawn
     *  ahead, so rng_ is the stream at the clock. serialize() moves
     *  it up to the clock, so a digest every cycle replays each
     *  failed draw once. */
    mutable Rng lag_;
    mutable Cycle lagAt_ = kNeverDue;
    Cycle next_ = 0;     ///< the cycle this source acts at next
    bool armed_ = false; ///< next_'s trial is drawn and succeeded
};

} // namespace nox

#endif // NOX_TRAFFIC_BERNOULLI_SOURCE_HPP
