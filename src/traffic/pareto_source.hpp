/**
 * @file
 * Self-similar Pareto ON/OFF packet source.
 *
 * The paper (§5.1) uses "a self similar pareto-based traffic pattern
 * commonly used in networking evaluations ... generated using
 * alpha = 1.4, b = 8 and varying T_off to obtain desired injection
 * rates" — the pseudo-Pareto construction of Kramer [11] and the
 * Ethernet self-similarity result of Leland et al. [15].
 *
 * During an ON burst the source injects one packet per cycle toward a
 * per-burst destination; burst and gap lengths are Pareto distributed.
 */

#ifndef NOX_TRAFFIC_PARETO_SOURCE_HPP
#define NOX_TRAFFIC_PARETO_SOURCE_HPP

#include "common/rng.hpp"
#include "noc/traffic_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {

/** Pareto ON/OFF self-similar source. */
class ParetoSource : public TrafficSource
{
  public:
    /**
     * @param self this source's node
     * @param pattern per-burst destination chooser
     * @param flits_per_cycle target mean offered load
     * @param packet_flits flits per packet
     * @param seed private RNG seed
     * @param alpha Pareto shape (paper: 1.4)
     * @param b minimum ON duration in cycles (paper: 8)
     */
    ParetoSource(NodeId self, const DestinationPattern &pattern,
                 double flits_per_cycle, int packet_flits,
                 std::uint64_t seed, double alpha = 1.4,
                 double b = 8.0);

    /** Due the next cycle while ON toward a destination, else at the
     *  phase end. */
    Cycle tick(Cycle now, PacketInjector &inj) override;

    void serialize(snap::Writer &w, Cycle clock) const override;
    void restore(snap::Reader &r) override;

    /** Mean OFF-scale (T_off) solved for the target rate (test). */
    double offScale() const { return offScale_; }

  private:
    void startOn(Cycle now);
    void startOff(Cycle now);

    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    NodeId self_;
    const DestinationPattern &pattern_;
    int packetFlits_;
    double alpha_;
    double onScale_;
    double offScale_;
    Rng rng_;

    bool on_ = false;
    Cycle phaseEnd_ = 0; ///< first cycle NOT in the current phase
    NodeId burstDest_ = kInvalidNode;
    bool primed_ = false;
};

} // namespace nox

#endif // NOX_TRAFFIC_PARETO_SOURCE_HPP
