#include "routers/spec_router.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

SpecRouter::SpecRouter(NodeId id, const Mesh &mesh,
                       const RoutingTable &table,
                       const RouterParams &params, Variant variant)
    : Router(id, mesh, table, params), variant_(variant)
{
    const auto ports = static_cast<std::size_t>(params.numPorts);
    arb_.resize(ports);
    reserved_.assign(ports, -1);
    lockOwner_.assign(ports, -1);
    lockPacket_.assign(ports, kInvalidPacket);
    prevHeadPacket_.assign(ports, kInvalidPacket);
    for (auto &a : arb_)
        a = makeArbiter();
    scratchHead_.resize(ports);
    scratchRequests_.resize(ports);
}

void
SpecRouter::evaluate(Cycle now)
{
    // Heads are read in place, as in NonSpecRouter::evaluate().
    const int ports = numPorts();
    LatencyProvenance *const prov = prov_;
    auto &head = scratchHead_;
    auto &requests_for = scratchRequests_;
    for (int o = 0; o < ports; ++o)
        requests_for[static_cast<std::size_t>(o)] = 0;
    for (int p = 0; p < ports; ++p) {
        // prevHeadPacket_ is updated in place to this cycle's head.
        const PacketId prev = prevHeadPacket_[p];
        if (in_[p].empty()) {
            prevHeadPacket_[p] = kInvalidPacket;
            continue;
        }
        const WireFlit &w = in_[p].front();
        NOX_ASSERT(!w.encoded,
                   "encoded flit reached a non-decoding input port");
        const FlitDesc &d = w.parts.front();
        head[p] = &d;
        prevHeadPacket_[p] = d.packet;
        const int o = routeOf(d);

        // Spec-Fast fairness rule (§3.1.2): a packet newly exposed
        // behind a departing packet on the same input may not request
        // arbitration in its first cycle as head — its request wires
        // still carry the predecessor's state, so it neither rides
        // the stale reservation nor reaches the allocator. (A flit
        // arriving into an empty input registers normally.)
        if (variant_ == Variant::Fast && prev != kInvalidPacket &&
            prev != d.packet) {
            // Fairness-rule blanking costs the new head one
            // arbitration cycle.
            provStall(d, LatencyComponent::ArbLoss, now);
            continue;
        }
        requests_for[o] |= maskBit(p);
    }

    for (RequestMask cm = connectedOutputs(); cm; cm &= cm - 1) {
        const int o = std::countr_zero(cm);
        const RequestMask requests = requests_for[o];

        if (!haveCredit(o) || linkBusy(o, now)) {
            // Switch requests are gated by credits (and by the link-
            // level retry protocol, which owns the wire until its
            // pending flit is acknowledged): nothing drives the
            // output, Switch-Next sees no requests, and any
            // pending reservation expires (the mask reopens). Letting
            // a reservation survive back-pressure would let one input
            // capture the output indefinitely under stop-and-go
            // credit flow — defeating the fairness the §3.1.2 rules
            // exist to protect.
            if (prov) {
                const LatencyComponent c =
                    linkBusy(o, now) ? LatencyComponent::Retransmit
                                     : LatencyComponent::CreditStall;
                for (RequestMask m = requests; m; m &= m - 1)
                    provStall(*head[std::countr_zero(m)], c, now);
            }
            reserved_[o] = -1;
            continue;
        }

        if (degraded_ && lockOwner_[o] >= 0) {
            // After a mid-run table rebuild the locked packet may have
            // been purged, rerouted, or interleaved with foreign
            // flits. If the owner cannot supply the locked packet this
            // cycle, abandon the lock and let the remaining flits flow
            // flit-wise (delivery is count-based).
            const int p = lockOwner_[o];
            if (!((requests & maskBit(p)) &&
                  head[p]->packet == lockPacket_[o])) {
                lockOwner_[o] = -1;
                lockPacket_[o] = kInvalidPacket;
            }
        }

        // Switch-Fast mask for this cycle: a wormhole lock pins the
        // mask to the owner; otherwise last cycle's reservation (if
        // any) selects a single input; otherwise fully open.
        RequestMask fast_mask;
        if (lockOwner_[o] >= 0)
            fast_mask = maskBit(lockOwner_[o]);
        else if (reserved_[o] >= 0)
            fast_mask = maskBit(reserved_[o]);
        else
            fast_mask = allPortsMask();

        const RequestMask drivers = requests & fast_mask;
        const int fanin = std::popcount(drivers);

        if (prov) {
            // Requests outside the Switch-Fast mask lost to the lock
            // or reservation holder; on misspeculation every driver
            // loses the cycle too.
            const RequestMask losers =
                (requests & ~fast_mask) | (fanin > 1 ? drivers : 0);
            for (RequestMask m = losers; m; m &= m - 1)
                provStall(*head[std::countr_zero(m)],
                          LatencyComponent::ArbLoss, now);
        }

        int success = -1;
        if (fanin == 1) {
            success = std::countr_zero(drivers);
            if (lockOwner_[o] >= 0) {
                NOX_ASSERT(head[success]->packet == lockPacket_[o],
                           "foreign flit inside locked wormhole");
            }
            provSend(*head[success], o, now);
            traverseWormhole(success, o, lockOwner_[o], lockPacket_[o]);
        } else if (fanin > 1) {
            // Misspeculation: the switch drives the XOR^W an
            // indeterminate value; the cycle and link energy are lost.
            driveWasted(o);
            energy_.misspecCycles += 1;
            energy_.xbarInputDrives += static_cast<std::uint64_t>(fanin);
        }

        // Reservation is single-use; recomputed below by Switch Next.
        reserved_[o] = -1;

        if (lockOwner_[o] >= 0) {
            // Multi-flit transmission in progress (the traverse above
            // may have just set or cleared the lock): all other
            // requests are masked from arbitration.
            continue;
        }

        // Switch Next: choose next cycle's reservation.
        RequestMask next_requests;
        if (variant_ == Variant::Fast) {
            // All requests not masked by Switch-Fast — including one
            // that succeeded this cycle (unnecessary reservations).
            // Newly exposed packets were already excluded above.
            next_requests = requests & fast_mask;
        } else {
            // Accurate: the same (post-mask) requests Switch-Fast saw,
            // minus the one that successfully traversed this cycle —
            // the only functional difference from Spec-Fast (§3.1.2),
            // eliminating its unnecessary reservations.
            next_requests = requests & fast_mask;
            if (success >= 0)
                next_requests &= ~maskBit(success);
        }

        if (next_requests) {
            energy_.allocEvals += 1;
            reserved_[o] = arb_[o]->grant(next_requests);
            energy_.arbDecisions += 1;
            trace(TraceEventKind::Arbitrate, o,
                  static_cast<std::uint64_t>(reserved_[o]),
                  static_cast<std::uint32_t>(next_requests));
        }
    }
}

bool
SpecRouter::quiescent() const
{
    if (!Router::quiescent())
        return false;
    for (int owner : lockOwner_) {
        if (owner >= 0)
            return false;
    }
    for (int r : reserved_) {
        if (r >= 0)
            return false;
    }
    for (PacketId p : prevHeadPacket_) {
        if (p != kInvalidPacket)
            return false;
    }
    return true;
}

void
SpecRouter::onTableRebuild()
{
    Router::onTableRebuild();
    std::fill(lockOwner_.begin(), lockOwner_.end(), -1);
    std::fill(lockPacket_.begin(), lockPacket_.end(), kInvalidPacket);
    std::fill(reserved_.begin(), reserved_.end(), -1);
}

void
SpecRouter::debugPerturb()
{
    arb_[0]->perturb();
}

template <typename Ar, typename Self>
void
SpecRouter::layout(Ar &ar, Self &self)
{
    for (auto &a : self.arb_)
        snap::io(ar, *a);
    for (auto &v : self.reserved_) {
        snap::ioBounded(ar, v, -1, self.numPorts() - 1,
                        "switch reservation out of range");
    }
    for (auto &o : self.lockOwner_) {
        snap::ioBounded(ar, o, -1, self.numPorts() - 1,
                        "wormhole lock owner out of range");
    }
    for (auto &p : self.lockPacket_)
        snap::io(ar, p);
    for (auto &p : self.prevHeadPacket_)
        snap::io(ar, p);
}

void
SpecRouter::serialize(snap::Writer &w, snap::Scope scope) const
{
    Router::serialize(w, scope);
    layout(w, *this);
}

void
SpecRouter::restore(snap::Reader &r)
{
    Router::restore(r);
    layout(r, *this);
}

} // namespace nox
