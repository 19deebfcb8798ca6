#include "traffic/bernoulli_source.hpp"

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

BernoulliSource::BernoulliSource(NodeId self,
                                 const DestinationPattern &pattern,
                                 double flits_per_cycle,
                                 int packet_flits, std::uint64_t seed)
    : self_(self), pattern_(pattern), flitsPerCycle_(flits_per_cycle),
      packetFlits_(packet_flits),
      packetProb_(flits_per_cycle / packet_flits), rng_(seed)
{
    NOX_ASSERT(packet_flits >= 1, "packet size must be >= 1 flit");
    NOX_ASSERT(flits_per_cycle >= 0.0 && packetProb_ <= 1.0,
               "offered load out of range: ", flits_per_cycle,
               " flits/cycle with ", packet_flits, "-flit packets");
}

void
BernoulliSource::tick(Cycle now, PacketInjector &inj)
{
    if (!rng_.nextBernoulli(packetProb_))
        return;
    const NodeId dst = pattern_.pick(self_, rng_);
    if (dst == kInvalidNode)
        return; // source silent under this deterministic pattern
    inj.injectPacket(self_, dst, packetFlits_, now,
                     TrafficClass::Synthetic);
}


void
BernoulliSource::serialize(snap::Writer &w) const
{
    snap::io(w, rng_);
}

void
BernoulliSource::restore(snap::Reader &r)
{
    snap::io(r, rng_);
}

} // namespace nox
