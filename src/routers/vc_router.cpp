#include "routers/vc_router.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "noc/fault_injector.hpp"
#include "noc/nic.hpp"
#include "noc/snapshot_codec.hpp"

namespace nox {

VcRouter::VcRouter(NodeId id, const Mesh &mesh, const RoutingTable &table,
                   const RouterParams &params, int vc_count)
    : Router(id, mesh, table, params), vcs_(vc_count)
{
    NOX_ASSERT(vc_count >= 1 && vc_count <= 8, "bad VC count");
    const std::size_t slots =
        static_cast<std::size_t>(params.numPorts) *
        static_cast<std::size_t>(vc_count);
    vcIn_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i)
        vcIn_.emplace_back(
            static_cast<std::size_t>(params.bufferDepth));
    // Downstream mirrors our own geometry; per-VC credits start at
    // the per-VC buffer depth (NIC sinks are sized accordingly).
    vcCredits_.assign(slots, params.bufferDepth);
    stagedVcCredits_.assign(slots, 0);
    vcCreditsLost_.assign(slots, 0);
    lockOwner_.assign(slots, -1);
    lockPacket_.assign(slots, kInvalidPacket);

    outArb_.resize(static_cast<std::size_t>(params.numPorts));
    vcArb_.resize(static_cast<std::size_t>(params.numPorts));
    for (int p = 0; p < params.numPorts; ++p) {
        outArb_[static_cast<std::size_t>(p)] = makeArbiter();
        vcArb_[static_cast<std::size_t>(p)] =
            std::make_unique<RoundRobinArbiter>(vc_count);
    }
}

void
VcRouter::commit()
{
    const int ports = numPorts();
    // Arrivals were staged straight into their lanes.
    for (FlitFifo &fifo : vcIn_) {
        if (fifo.staged()) {
            energy_.bufferWrites += 1;
            fifo.publish();
        }
    }
    stagedInMask_ = 0;
    stagedCreditMask_ = 0;
    for (int p = 0; p < ports; ++p) {
        // Plain per-port credits are unused by this router, but the
        // base bookkeeping still runs for wiring assertions.
        credits_[p] += stagedCredits_[p];
        stagedCredits_[p] = 0;
        for (int v = 0; v < vcs_; ++v) {
            vcCredits_[index(p, v)] += stagedVcCredits_[index(p, v)];
            stagedVcCredits_[index(p, v)] = 0;
        }
    }
}

void
VcRouter::stageCreditVc(int out_port, int vc)
{
    NOX_ASSERT(out_port >= 0 && out_port < numPorts(), "bad port");
    NOX_ASSERT(vc >= 0 && vc < vcs_, "bad vc");
    if (faults_ && outTarget_[out_port].router &&
        faults_->drawCreditLoss(id_, out_port,
                                static_cast<std::uint64_t>(vc))) {
        // With protection the loss is owed to this lane until the
        // watchdog's next audit; raw mode just leaks the slot.
        if (faults_->protectEnabled())
            vcCreditsLost_[index(out_port, vc)] += 1;
        wake();
        return;
    }
    stagedVcCredits_[index(out_port, vc)] += 1;
    wake();
}

void
VcRouter::evaluateLink(Cycle now)
{
    Router::evaluateLink(now);
    if (!faults_ || !faults_->protectEnabled())
        return;
    const Cycle period = faults_->params().watchdogPeriod;
    if (period == 0 || now % period != 0)
        return;
    for (std::size_t lane = 0; lane < vcCreditsLost_.size(); ++lane) {
        if (vcCreditsLost_[lane] == 0)
            continue;
        faults_->onCreditResync(
            static_cast<std::uint64_t>(vcCreditsLost_[lane]));
        vcCredits_[lane] += vcCreditsLost_[lane];
        vcCreditsLost_[lane] = 0;
    }
}

bool
VcRouter::quiescent() const
{
    if (!Router::quiescent())
        return false;
    for (const FlitFifo &fifo : vcIn_) {
        if (!fifo.empty())
            return false;
    }
    for (int staged : stagedVcCredits_) {
        if (staged != 0)
            return false;
    }
    for (int lost : vcCreditsLost_) {
        if (lost != 0)
            return false; // the watchdog still owes this lane credits
    }
    for (int owner : lockOwner_) {
        if (owner >= 0)
            return false;
    }
    return true;
}

void
VcRouter::killOutput(int out_port, std::vector<FlitDesc> &lost)
{
    const bool was_connected = outTarget_[out_port].connected();
    Router::killOutput(out_port, lost);
    if (!was_connected)
        return;
    for (int v = 0; v < vcs_; ++v) {
        const std::size_t lane = index(out_port, v);
        vcCredits_[lane] = 0;
        stagedVcCredits_[lane] = 0;
        vcCreditsLost_[lane] = 0;
        lockOwner_[lane] = -1;
        lockPacket_[lane] = kInvalidPacket;
    }
}

void
VcRouter::purgeFlits(const FlitCondemned &condemned,
                     std::vector<FlitDesc> &removed)
{
    for (int p = 0; p < numPorts(); ++p) {
        for (int v = 0; v < vcs_; ++v) {
            purgePlain(vcIn_[index(p, v)], p, condemned, removed,
                       [this, p, v] { returnVcCredit(p, v); });
        }
    }
    purgeLinkState(condemned, removed);
}

void
VcRouter::onOutputRevived(int out_port)
{
    // A mesh neighbour is a VC router too; a NIC output has none.
    const FlitTarget &t = outTarget_[out_port];
    const auto *down = static_cast<const VcRouter *>(t.router);
    for (int v = 0; v < vcs_; ++v) {
        const std::size_t lane = index(out_port, v);
        vcCredits_[lane] =
            params_.bufferDepth -
            (down ? static_cast<int>(down->vcFifo(t.port, v).size())
                  : 0);
        stagedVcCredits_[lane] = 0;
        vcCreditsLost_[lane] = 0;
        lockOwner_[lane] = -1;
        lockPacket_[lane] = kInvalidPacket;
    }
}

void
VcRouter::onTableRebuild()
{
    Router::onTableRebuild();
    std::fill(lockOwner_.begin(), lockOwner_.end(), -1);
    std::fill(lockPacket_.begin(), lockPacket_.end(), kInvalidPacket);
}

void
VcRouter::returnVcCredit(int in_port, int vc)
{
    const CreditTarget &t = creditTarget_[in_port];
    if (!t.connected())
        return;
    if (t.router)
        t.router->stageCreditVc(t.port, vc);
    else
        t.nic->stageInjectCredit(1, vc);
}

void
VcRouter::evaluate(Cycle now)
{
    const int ports = numPorts();

    if (degraded_) {
        // After a mid-run table rebuild a locked lane's packet may
        // have been purged, rerouted to another input, or had foreign
        // flits interleaved ahead of it. Whenever the owner cannot
        // supply the locked packet this cycle, abandon the lock and
        // let the remaining flits flow flit-wise (delivery is
        // count-based, so intact packets still complete).
        for (int o = 0; o < ports; ++o) {
            for (int v = 0; v < vcs_; ++v) {
                const std::size_t lane = index(o, v);
                const int p = lockOwner_[lane];
                if (p < 0)
                    continue;
                const FlitFifo &fifo = vcIn_[index(p, v)];
                const bool supplied =
                    !fifo.empty() &&
                    fifo.front().parts.front().packet ==
                        lockPacket_[lane] &&
                    routeOf(fifo.front().parts.front()) == o;
                if (!supplied) {
                    lockOwner_[lane] = -1;
                    lockPacket_[lane] = kInvalidPacket;
                }
            }
        }
    }

    // Stage 1 (VC allocation): each input port selects one eligible
    // (head present, downstream per-VC credit available) VC.
    // Member scratch — per-call allocation would dominate evaluate().
    auto &chosen = scratchChosen_;
    chosen.assign(static_cast<std::size_t>(ports), Candidate{});
    auto &out_of = scratchVcOut_;
    for (int p = 0; p < ports; ++p) {
        RequestMask eligible = 0;
        out_of.assign(static_cast<std::size_t>(vcs_), -1);
        for (int v = 0; v < vcs_; ++v) {
            const FlitFifo &fifo = vcIn_[index(p, v)];
            if (fifo.empty())
                continue;
            const FlitDesc &d = fifo.front().parts.front();
            const int o = routeOf(d);
            // Wormhole: mid-packet, only the owner input may use the
            // (o, v) lane; heads must find it unlocked.
            const int owner = lockOwner_[index(o, v)];
            if (owner >= 0 && owner != p) {
                provStall(d, LatencyComponent::ArbLoss, now);
                continue;
            }
            if (owner < 0 && !d.isHead() && !degraded_) {
                // body flit of a packet we do not own here
                provStall(d, LatencyComponent::ArbLoss, now);
                continue;
            }
            if (vcCredits_[index(o, v)] <= 0 || linkBusy(o, now)) {
                provStall(d,
                          linkBusy(o, now)
                              ? LatencyComponent::Retransmit
                              : LatencyComponent::CreditStall,
                          now);
                continue;
            }
            eligible |= maskBit(v);
            out_of[static_cast<std::size_t>(v)] = o;
        }
        if (eligible) {
            const int v =
                vcArb_[static_cast<std::size_t>(p)]->grant(eligible);
            if (prov_) {
                for (int u = 0; u < vcs_; ++u) {
                    if (u != v && (eligible & maskBit(u)))
                        provStall(
                            vcIn_[index(p, u)].front().parts.front(),
                            LatencyComponent::ArbLoss, now);
                }
            }
            chosen[static_cast<std::size_t>(p)] = {
                v, out_of[static_cast<std::size_t>(v)]};
        }
    }

    // Stage 2 (switch allocation): one winner per output port.
    for (int o = 0; o < ports; ++o) {
        if (!outputConnected(o))
            continue;
        RequestMask requests = 0;
        for (int p = 0; p < ports; ++p) {
            if (chosen[static_cast<std::size_t>(p)].out == o)
                requests |= maskBit(p);
        }
        if (!requests)
            continue;
        const int winner =
            outArb_[static_cast<std::size_t>(o)]->grant(requests);
        energy_.arbDecisions += 1;
        trace(TraceEventKind::Arbitrate, o,
              static_cast<std::uint64_t>(winner),
              static_cast<std::uint32_t>(requests));
        if (prov_) {
            for (int p = 0; p < ports; ++p) {
                if (p == winner || !(requests & maskBit(p)))
                    continue;
                const int v =
                    chosen[static_cast<std::size_t>(p)].vc;
                provStall(vcIn_[index(p, v)].front().parts.front(),
                          LatencyComponent::ArbLoss, now);
            }
        }
        traverse(winner, chosen[static_cast<std::size_t>(winner)].vc,
                 o, now);
    }
}

void
VcRouter::traverse(int in_port, int vc, int out_port, Cycle now)
{
    FlitFifo &fifo = vcIn_[index(in_port, vc)];
    WireFlit &w = fifo.front(); // moved on in place, then dropped
    const FlitDesc &d = w.parts.front();
    provSend(d, out_port, now);
    energy_.bufferReads += 1;
    energy_.xbarInputDrives += 1;
    returnVcCredit(in_port, vc);

    const std::size_t lane = index(out_port, vc);
    if (d.isHead() && !d.isTail()) {
        lockOwner_[lane] = in_port;
        lockPacket_[lane] = d.packet;
    } else if (d.isTail()) {
        // The packet-match guard only matters in degraded mode, where
        // a lock-free tail must not clear another packet's lock.
        if (lockOwner_[lane] < 0 || lockPacket_[lane] == d.packet) {
            lockOwner_[lane] = -1;
            lockPacket_[lane] = kInvalidPacket;
        }
    } else {
        NOX_ASSERT(degraded_ || lockPacket_[lane] == d.packet,
                   "foreign body inside VC wormhole");
    }

    NOX_ASSERT(vcCredits_[lane] > 0, "VC credit underflow");
    --vcCredits_[lane];
    dispatchFlit(out_port, std::move(w));
    fifo.drop();
}

void
VcRouter::debugPerturb()
{
    outArb_[0]->perturb();
}

template <typename Ar, typename Self>
void
VcRouter::layout(Ar &ar, Self &self)
{
    for (int c : self.stagedVcCredits_)
        NOX_ASSERT(c == 0, "snapshot with staged VC credits");
    snap::ioExpect(ar, static_cast<std::uint8_t>(self.vcs_),
                   "VC count mismatch (wrong geometry)");
    for (auto &f : self.vcIn_)
        snap::io(ar, f);
    for (auto &c : self.vcCredits_)
        snap::io(ar, c);
    for (auto &c : self.vcCreditsLost_)
        snap::io(ar, c);
    for (auto &o : self.lockOwner_) {
        snap::ioBounded(ar, o, -1, self.numPorts() - 1,
                        "wormhole lock owner out of range");
    }
    for (auto &p : self.lockPacket_)
        snap::io(ar, p);
    for (auto &a : self.outArb_)
        snap::io(ar, *a);
    for (auto &a : self.vcArb_)
        snap::io(ar, *a);
}

void
VcRouter::serialize(snap::Writer &w, snap::Scope scope) const
{
    Router::serialize(w, scope);
    layout(w, *this);
}

void
VcRouter::restore(snap::Reader &r)
{
    Router::restore(r);
    layout(r, *this);
}

} // namespace nox
