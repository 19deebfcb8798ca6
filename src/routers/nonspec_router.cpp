#include "routers/nonspec_router.hpp"

#include <algorithm>
#include <bit>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

NonSpecRouter::NonSpecRouter(NodeId id, const Mesh &mesh,
                             const RoutingTable &table,
                             const RouterParams &params)
    : Router(id, mesh, table, params)
{
    const auto ports = static_cast<std::size_t>(params.numPorts);
    arb_.resize(ports);
    lockOwner_.assign(ports, -1);
    lockPacket_.assign(ports, kInvalidPacket);
    for (auto &a : arb_)
        a = makeArbiter();
    scratchHead_.resize(ports);
    scratchRequests_.resize(ports);
}

void
NonSpecRouter::evaluate(Cycle now)
{
    // Combinational request gathering: each input's (uncoded) head
    // flit requests exactly one output via lookahead DOR. Heads are
    // read in place: head[p] is valid until input p is popped (so
    // provSend() runs before the traversal), and an idle port's stale
    // head[p] is never read because no request mask names it.
    const int ports = numPorts();
    LatencyProvenance *const prov = prov_;
    auto &head = scratchHead_;
    auto &requests_for = scratchRequests_;
    for (int o = 0; o < ports; ++o)
        requests_for[static_cast<std::size_t>(o)] = 0;
    for (int p = 0; p < ports; ++p) {
        if (in_[p].empty())
            continue;
        const WireFlit &w = in_[p].front();
        NOX_ASSERT(!w.encoded,
                   "encoded flit reached a non-decoding input port");
        head[p] = &w.parts.front();
        requests_for[routeOf(*head[p])] |= maskBit(p);
    }

    for (RequestMask cm = connectedOutputs(); cm; cm &= cm - 1) {
        const int o = std::countr_zero(cm);
        const RequestMask requests = requests_for[o];
        if (!haveCredit(o) || linkBusy(o, now)) {
            if (prov) {
                // Everyone presenting for this output waits on the
                // downstream buffer (or on the link-retry protocol
                // holding the wire).
                const LatencyComponent c =
                    linkBusy(o, now) ? LatencyComponent::Retransmit
                                     : LatencyComponent::CreditStall;
                for (RequestMask m = requests; m; m &= m - 1)
                    provStall(*head[std::countr_zero(m)], c, now);
            }
            continue;
        }

        if (lockOwner_[o] >= 0) {
            // Wormhole: output reserved for an in-flight packet; body
            // flits pass without re-arbitration.
            const int p = lockOwner_[o];
            const bool owner_ready = (requests & maskBit(p)) != 0;
            if (degraded_ &&
                !(owner_ready && head[p]->packet == lockPacket_[o])) {
                // After a mid-run table rebuild the locked packet may
                // have been purged, rerouted to a different input, or
                // had foreign flits interleaved into its stream.
                // Whenever the owner cannot supply the locked packet
                // this cycle, abandon the lock: the remaining flits
                // flow flit-wise (delivery is count-based, so intact
                // packets still complete).
                lockOwner_[o] = -1;
                lockPacket_[o] = kInvalidPacket;
                if (prov) {
                    for (RequestMask m = requests; m; m &= m - 1)
                        provStall(*head[std::countr_zero(m)],
                                  LatencyComponent::Reroute, now);
                }
                continue;
            }
            if (prov) {
                for (RequestMask m = requests & ~maskBit(p); m;
                     m &= m - 1)
                    provStall(*head[std::countr_zero(m)],
                              LatencyComponent::ArbLoss, now);
            }
            if (owner_ready) {
                NOX_ASSERT(head[p]->packet == lockPacket_[o],
                           "foreign flit inside locked wormhole");
                provSend(*head[p], o, now);
                traverseWormhole(p, o, lockOwner_[o], lockPacket_[o]);
            }
            continue;
        }

        if (!requests)
            continue;

        const int winner = arb_[o]->grant(requests);
        energy_.arbDecisions += 1;
        NOX_ASSERT(winner >= 0, "arbiter returned no grant");
        trace(TraceEventKind::Arbitrate, o,
              static_cast<std::uint64_t>(winner),
              static_cast<std::uint32_t>(requests));
        if (prov) {
            for (RequestMask m = requests & ~maskBit(winner); m;
                 m &= m - 1)
                provStall(*head[std::countr_zero(m)],
                          LatencyComponent::ArbLoss, now);
        }
        provSend(*head[winner], o, now);
        traverseWormhole(winner, o, lockOwner_[o], lockPacket_[o]);
    }
}

bool
NonSpecRouter::quiescent() const
{
    if (!Router::quiescent())
        return false;
    for (int owner : lockOwner_) {
        if (owner >= 0)
            return false; // multi-flit transfer in progress
    }
    return true;
}

void
NonSpecRouter::onTableRebuild()
{
    Router::onTableRebuild();
    std::fill(lockOwner_.begin(), lockOwner_.end(), -1);
    std::fill(lockPacket_.begin(), lockPacket_.end(), kInvalidPacket);
}

void
NonSpecRouter::debugPerturb()
{
    arb_[0]->perturb();
}

template <typename Ar, typename Self>
void
NonSpecRouter::layout(Ar &ar, Self &self)
{
    for (auto &a : self.arb_)
        snap::io(ar, *a);
    for (auto &o : self.lockOwner_) {
        snap::ioBounded(ar, o, -1, self.numPorts() - 1,
                        "wormhole lock owner out of range");
    }
    for (auto &p : self.lockPacket_)
        snap::io(ar, p);
}

void
NonSpecRouter::serialize(snap::Writer &w, snap::Scope scope) const
{
    Router::serialize(w, scope);
    layout(w, *this);
}

void
NonSpecRouter::restore(snap::Reader &r)
{
    Router::restore(r);
    layout(r, *this);
}

} // namespace nox
