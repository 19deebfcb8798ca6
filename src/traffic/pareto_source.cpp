#include "traffic/pareto_source.hpp"

#include <cmath>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

ParetoSource::ParetoSource(NodeId self,
                           const DestinationPattern &pattern,
                           double flits_per_cycle, int packet_flits,
                           std::uint64_t seed, double alpha, double b)
    : self_(self), pattern_(pattern), packetFlits_(packet_flits),
      alpha_(alpha), onScale_(b), rng_(seed)
{
    NOX_ASSERT(alpha > 1.0, "Pareto shape must exceed 1 (finite mean)");
    const double peak = static_cast<double>(packet_flits); // flits/cyc
    NOX_ASSERT(flits_per_cycle > 0.0 && flits_per_cycle < peak,
               "self-similar load must be in (0, peak)");

    // Mean ON duration: E[Pareto(alpha, b)] = alpha*b/(alpha-1).
    // Duty cycle r/peak = on/(on+off)  =>  solve the OFF scale T_off.
    const double mean_on = alpha * b / (alpha - 1.0);
    const double duty = flits_per_cycle / peak;
    const double mean_off = mean_on * (1.0 - duty) / duty;
    offScale_ = mean_off * (alpha - 1.0) / alpha;
}

void
ParetoSource::startOn(Cycle now)
{
    on_ = true;
    const double len = rng_.nextPareto(alpha_, onScale_);
    phaseEnd_ = now + static_cast<Cycle>(std::llround(
                          std::max(1.0, len)));
    burstDest_ = kInvalidNode;
    // Bursts address one destination, per the pseudo-Pareto model.
    for (int attempts = 0; attempts < 8; ++attempts) {
        const NodeId d = pattern_.pick(self_, rng_);
        if (d != kInvalidNode) {
            burstDest_ = d;
            break;
        }
    }
}

void
ParetoSource::startOff(Cycle now)
{
    on_ = false;
    const double len = rng_.nextPareto(alpha_, offScale_);
    phaseEnd_ = now + static_cast<Cycle>(std::llround(
                          std::max(1.0, len)));
}

Cycle
ParetoSource::tick(Cycle now, PacketInjector &inj)
{
    if (!primed_) {
        primed_ = true;
        // Randomize the initial phase so sources do not synchronize.
        if (rng_.nextBernoulli(0.5))
            startOn(now);
        else
            startOff(now);
    }

    while (now >= phaseEnd_) {
        if (on_)
            startOff(phaseEnd_);
        else
            startOn(phaseEnd_);
    }

    if (on_ && burstDest_ != kInvalidNode) {
        inj.injectPacket(self_, burstDest_, packetFlits_, now,
                         TrafficClass::Synthetic);
        return now + 1;
    }
    return phaseEnd_;
}


template <typename Ar, typename Self>
void
ParetoSource::layout(Ar &ar, Self &self)
{
    snap::fields(ar, self.rng_, self.on_, self.phaseEnd_, self.burstDest_,
                 self.primed_);
}

void
ParetoSource::serialize(snap::Writer &w, Cycle) const
{
    layout(w, *this);
}

void
ParetoSource::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
