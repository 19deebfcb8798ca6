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
    if (packetProb_ > 0.0 && packetProb_ < 1.0)
        threshold_ = Rng::threshold53(packetProb_);
}

void
BernoulliSource::drawAhead(Cycle from)
{
    Rng rng = rng_; // a local copy keeps the loop in registers
    armed_ = false;
    next_ = from + kMaxAhead;
    for (Cycle c = from; c < from + kMaxAhead; ++c) {
        if (rng.nextBelow(threshold_)) {
            next_ = c;
            armed_ = true;
            break;
        }
    }
    rng_ = rng;
}

void
BernoulliSource::fire(Cycle now, PacketInjector &inj)
{
    const NodeId dst = pattern_.pick(self_, rng_);
    if (dst == kInvalidNode)
        return; // source silent under this deterministic pattern
    inj.injectPacket(self_, dst, packetFlits_, now,
                     TrafficClass::Synthetic);
}

Cycle
BernoulliSource::tick(Cycle now, PacketInjector &inj)
{
    // p <= 0 and p >= 1 draw no trial, as nextBernoulli does not.
    if (packetProb_ <= 0.0)
        return kNeverDue;
    if (packetProb_ >= 1.0) {
        fire(now, inj);
        return now + 1;
    }
    if (now < next_)
        return next_;
    if (!armed_) {
        // The trial of `now` is not drawn yet: the first tick, the
        // first after a restore, or a long gap's continuation.
        if (lagAt_ == kNeverDue) {
            lag_ = rng_;
            lagAt_ = now;
        }
        drawAhead(now);
        if (!armed_ || next_ != now)
            return next_;
    }
    NOX_ASSERT(now == next_, "Bernoulli source ticked past its success");
    fire(now, inj);
    lag_ = rng_;
    lagAt_ = now + 1;
    drawAhead(now + 1);
    return next_;
}

Cycle
BernoulliSource::resume(Cycle due, Cycle paused)
{
    if (lagAt_ == kNeverDue)
        return due; // nothing drawn ahead: due at the resume cycle
    // The drawn trials belong to the next enabled cycles.
    lagAt_ += paused;
    next_ += paused;
    return next_;
}

void
BernoulliSource::serialize(snap::Writer &w, Cycle clock) const
{
    if (lagAt_ == kNeverDue) {
        snap::io(w, rng_);
        return;
    }
    NOX_ASSERT(lagAt_ <= clock && clock <= next_,
               "Bernoulli source serialized outside its drawn gap");
    for (; lagAt_ < clock; ++lagAt_)
        lag_.next(); // a failed trial of the gap
    snap::io(w, lag_);
}

void
BernoulliSource::restore(snap::Reader &r)
{
    snap::io(r, rng_);
    lagAt_ = kNeverDue;
    next_ = 0;
    armed_ = false;
}

} // namespace nox
