#include "noc/router.hpp"

#include <bit>

#include "common/log.hpp"
#include "noc/fault_injector.hpp"
#include "noc/nic.hpp"
#include "noc/snapshot_codec.hpp"

namespace nox {

Router::Router(NodeId id, const Mesh &mesh, const RoutingTable &table,
               const RouterParams &params)
    : id_(id), mesh_(mesh), table_(&table), params_(params)
{
    NOX_ASSERT(params.bufferDepth > 0, "buffer depth must be positive");
    NOX_ASSERT(params.numPorts >= 2 && params.numPorts <= kMaxMaskBits,
               "unsupported router radix ", params.numPorts);
    in_.reserve(static_cast<std::size_t>(params.numPorts));
    for (int p = 0; p < params.numPorts; ++p)
        in_.emplace_back(static_cast<std::size_t>(params.bufferDepth));
    stagedCredits_.assign(static_cast<std::size_t>(params.numPorts), 0);
    credits_.assign(static_cast<std::size_t>(params.numPorts), 0);
    outTarget_.resize(static_cast<std::size_t>(params.numPorts));
    creditTarget_.resize(static_cast<std::size_t>(params.numPorts));
}

void
Router::commit()
{
    RequestMask staged = stagedInMask_;
    stagedInMask_ = 0;
    while (staged) {
        const int p = std::countr_zero(staged);
        staged &= staged - 1;
        energy_.bufferWrites += 1;
        in_[p].publish();
    }
    RequestMask credited = stagedCreditMask_;
    stagedCreditMask_ = 0;
    while (credited) {
        const int p = std::countr_zero(credited);
        credited &= credited - 1;
        credits_[p] += stagedCredits_[p];
        stagedCredits_[p] = 0;
    }
}

bool
Router::quiescent() const
{
    if (stagedInMask_ != 0)
        return false;
    for (int p = 0; p < params_.numPorts; ++p) {
        if (!in_[p].empty() || stagedCredits_[p] != 0)
            return false;
    }
    // Link-layer state keeps a router live: a pending retry entry
    // still needs its ack timeout, and lost credits still need the
    // watchdog to run. Retiring here would strand both.
    if (faults_) {
        for (int p = 0; p < params_.numPorts; ++p) {
            if (retry_[p].has_value() || creditsLost_[p] != 0)
                return false;
        }
    }
    return true;
}

void
Router::attachFaults(FaultInjector *faults)
{
    faults_ = faults;
    if (!faults_)
        return;
    retry_.assign(static_cast<std::size_t>(params_.numPorts),
                  std::nullopt);
    lastLinkSend_.assign(static_cast<std::size_t>(params_.numPorts),
                         ~Cycle{0});
    creditsLost_.assign(static_cast<std::size_t>(params_.numPorts), 0);
}

void
Router::linkAck(int out_port)
{
    retry_[out_port].reset();
}

void
Router::linkNack(int out_port)
{
    NOX_ASSERT(retry_[out_port].has_value(),
               "link nack with no pending retry entry on ",
               portName(out_port));
    retry_[out_port]->due = faults_->now() + kNackDelay;
    retry_[out_port]->nacked = true;
    trace(TraceEventKind::LinkNack, out_port,
          retry_[out_port]->flit.parts.front().uid);
}

void
Router::evaluateLink(Cycle now)
{
    if (!faults_)
        return;
    if (prov_) {
        // Every cycle a retry entry is outstanding, its wire value is
        // somewhere between acceptance and a successful restage: bill
        // the wait to the link-protection machinery. The charge is
        // located at the *downstream* receiver — where onHopSend
        // placed the accepted flit — so encoded-chain constituents
        // that lost arbitration here (NoX) are filtered out by the
        // provenance location guard and keep accruing their own
        // XorRecovery/arbitration charges instead.
        for (int o = 0; o < params_.numPorts; ++o) {
            if (!retry_[o] || !outTarget_[o].router)
                continue;
            const NodeId down = outTarget_[o].router->id();
            for (const FlitDesc &d : retry_[o]->flit.parts)
                prov_->onStall(d.uid, LatencyComponent::Retransmit,
                               down, false, now);
        }
    }
    for (int o = 0; o < params_.numPorts; ++o) {
        if (!retry_[o] || retry_[o]->due > now)
            continue;
        // Timeout with no nack means the wire value never arrived:
        // the link layer has detected a drop.
        if (!retry_[o]->nacked)
            faults_->onDropDetected();
        // Re-arm before driving the wire — the receiver's synchronous
        // ack/nack during stageFlit overrides this entry.
        retry_[o]->nacked = false;
        retry_[o]->due = now + faults_->params().retryTimeout;
        faults_->onRetransmission();
        trace(TraceEventKind::Retransmit, o,
              retry_[o]->flit.parts.front().uid);
        lastLinkSend_[o] = now;
        // The retry buffer drives the link directly (no crossbar
        // traversal); no downstream credit is consumed — the slot was
        // reserved by the original send.
        energy_.linkFlits += 1;
        const FlitTarget &t = outTarget_[o];
        WireFlit copy = retry_[o]->flit;
        t.router->stageFlit(t.port, std::move(copy));
    }
    const Cycle period = faults_->params().watchdogPeriod;
    if (faults_->protectEnabled() && period > 0 && now % period == 0) {
        for (int o = 0; o < params_.numPorts; ++o) {
            if (creditsLost_[o] == 0)
                continue;
            // The watchdog audits the credit loop and restores the
            // counter to what the downstream buffer really holds.
            faults_->onCreditResync(
                static_cast<std::uint64_t>(creditsLost_[o]));
            trace(TraceEventKind::CreditResync, o, 0,
                  static_cast<std::uint32_t>(creditsLost_[o]));
            credits_[o] += creditsLost_[o];
            creditsLost_[o] = 0;
        }
    }
}

void
Router::connectOutput(int out_port, FlitTarget target, int credits)
{
    NOX_ASSERT(out_port >= 0 && out_port < params_.numPorts,
               "bad port");
    NOX_ASSERT(!outTarget_[out_port].connected(),
               "output port wired twice");
    outTarget_[out_port] = target;
    if (target.connected())
        connectedOutMask_ |= maskBit(out_port);
    credits_[out_port] = credits;
}

void
Router::connectInputCredit(int in_port, CreditTarget target)
{
    NOX_ASSERT(in_port >= 0 && in_port < params_.numPorts,
               "bad port");
    NOX_ASSERT(!creditTarget_[in_port].connected(),
               "input credit port wired twice");
    creditTarget_[in_port] = target;
}

void
Router::stageFlit(int in_port, WireFlit &&flit)
{
    NOX_ASSERT(in_port >= 0 && in_port < params_.numPorts,
               "bad port");
    // Fault boundary: only inter-router mesh links are perturbed —
    // a router upstream on the credit path identifies one (NIC
    // inject/eject connections are short, protected terminal wires).
    if (faults_ && creditTarget_[in_port].router) {
        const FlitFaults f = faults_->drawFlitFaults(id_, in_port);
        if (f.dropped)
            return; // vanished on the wire; sender timeout recovers
        flit.payload ^= f.flipMask;
        if (faults_->protectEnabled()) {
            Router *up = creditTarget_[in_port].router;
            const int up_port = creditTarget_[in_port].port;
            if (!wireChecksumOk(flit)) {
                // Corrupted arrival: reject (never buffered, so the
                // XOR decode chain stays clean) and nack the sender.
                faults_->onCorruptionRejected();
                trace(TraceEventKind::CrcReject, in_port,
                      flit.parts.front().uid);
                up->linkNack(up_port);
                return;
            }
            up->linkAck(up_port);
        }
    }
    NOX_ASSERT(!stagedAt(in_port),
               "two flits staged at one input in one cycle (router ",
               id_, " port ", portName(in_port), ")");
    arrivalFifo(in_port, flit).stage(std::move(flit));
    stagedInMask_ |= maskBit(in_port);
    wake();
}

void
Router::stageCredit(int out_port, int count)
{
    NOX_ASSERT(out_port >= 0 && out_port < params_.numPorts,
               "bad port");
    if (faults_ && outTarget_[out_port].router) {
        int survived = 0;
        for (int i = 0; i < count; ++i) {
            if (!faults_->drawCreditLoss(
                    id_, out_port, static_cast<std::uint64_t>(i))) {
                ++survived;
                continue;
            }
            // With protection, the loss is owed to this port until
            // the watchdog's next audit restores it; raw mode just
            // leaks the downstream buffer slot.
            if (faults_->protectEnabled())
                creditsLost_[out_port] += 1;
        }
        count = survived;
    }
    stagedCredits_[out_port] += count;
    stagedCreditMask_ |= maskBit(out_port);
    wake();
}

void
Router::sendFlit(int out_port, WireFlit &&flit)
{
    NOX_ASSERT(credits_[out_port] > 0,
               "send without downstream credit on ", portName(out_port));
    --credits_[out_port];
    dispatchFlit(out_port, std::move(flit));
}

void
Router::dispatchFlit(int out_port, WireFlit &&flit)
{
    NOX_ASSERT(outTarget_[out_port].connected(),
               "send on unconnected output ", portName(out_port));

    if (tracer_) {
        tracer_->record(TraceEventKind::FlitSend, id_, out_port,
                        flit.encoded ? 0 : flit.parts.front().uid,
                        static_cast<std::uint32_t>(flit.fanin()));
    }
    energy_.xbarOutputCycles += 1;
    if (out_port >= kPortLocal)
        energy_.localLinkFlits += 1;
    else
        energy_.linkFlits += 1;

    const FlitTarget &t = outTarget_[out_port];
    if (t.router) {
        if (faults_ && faults_->protectEnabled()) {
            // Stamp the link CRC and park a copy in the retry buffer
            // *before* driving the wire: the receiver's synchronous
            // ack/nack lands on this entry.
            flit.crc = wireChecksum(flit);
            NOX_ASSERT(!retry_[out_port].has_value(),
                       "send while link retry pending on ",
                       portName(out_port));
            retry_[out_port] = RetryEntry{
                flit, faults_->now() + faults_->params().retryTimeout,
                false};
        }
        t.router->stageFlit(t.port, std::move(flit));
    } else {
        t.nic->stageSinkFlit(std::move(flit));
    }
}

void
Router::provSend(const FlitDesc &d, int out_port, Cycle now)
{
    if (!prov_)
        return;
    const FlitTarget &t = outTarget_[out_port];
    if (t.router)
        prov_->onHopSend(d.uid, now, t.router->id(), false);
    else if (t.nic)
        prov_->onHopSend(d.uid, now, d.dest, true);
}

void
Router::driveWasted(int out_port)
{
    energy_.xbarOutputCycles += 1;
    if (out_port >= kPortLocal)
        energy_.localLinkWasted += 1;
    else
        energy_.linkWastedCycles += 1;
}

void
Router::returnCredit(int in_port)
{
    const CreditTarget &t = creditTarget_[in_port];
    if (!t.connected())
        return; // edge port with no upstream (should stay unused)
    if (t.router)
        t.router->stageCredit(t.port);
    else
        t.nic->stageInjectCredit();
}

void
Router::traverseWormhole(int in_port, int out_port, int &lock_owner,
                         PacketId &lock_packet)
{
    WireFlit &w = in_[in_port].front();
    const FlitDesc &d = w.parts.front();
    energy_.bufferReads += 1;
    energy_.xbarInputDrives += 1;
    returnCredit(in_port);

    if (d.isHead() && !d.isTail()) {
        lock_owner = in_port;
        lock_packet = d.packet;
    } else if (d.isTail() &&
               (lock_owner < 0 || lock_packet == d.packet)) {
        // The packet-match guard only matters in degraded mode, where
        // a lock-free tail must not clear another packet's lock.
        lock_owner = -1;
        lock_packet = kInvalidPacket;
    }

    // One move per hop: the head goes straight into the receiver's
    // FIFO slot, then its old slot is released.
    sendFlit(out_port, std::move(w));
    in_[in_port].drop();
}

int
Router::routeOf(const FlitDesc &flit) const
{
    const int port = table_->lookup(id_, flit.dest);
    NOX_ASSERT(port >= 0, "flit for unreachable destination ",
               flit.dest, " buffered at router ", id_,
               " (hard-fault purge missed it) packet=", flit.packet,
               " seq=", flit.seq, " src=", flit.src, " uid=",
               flit.uid);
    return port;
}

void
Router::killOutput(int out_port, std::vector<FlitDesc> &lost)
{
    if (!outTarget_[out_port].connected())
        return;
    if (faults_) {
        // A pending retry entry was never acknowledged: the receiver
        // rejected or never saw it, so its flits die with the wire.
        if (retry_[out_port]) {
            for (const FlitDesc &d : retry_[out_port]->flit.parts)
                lost.push_back(d);
            retry_[out_port].reset();
        }
        lastLinkSend_[out_port] = ~Cycle{0};
        creditsLost_[out_port] = 0;
    }
    credits_[out_port] = 0;
    stagedCredits_[out_port] = 0;
    outTarget_[out_port] = FlitTarget{};
    connectedOutMask_ &= ~maskBit(out_port);
}

void
Router::killInput(int in_port, std::vector<FlitDesc> &lost)
{
    (void)lost; // buffered flits are condemned by the purge instead
    NOX_ASSERT(!stagedAt(in_port), "hard fault applied mid-cycle");
    creditTarget_[in_port] = CreditTarget{};
}

void
Router::purgeLinkState(const FlitCondemned &condemned,
                       std::vector<FlitDesc> &removed)
{
    NOX_ASSERT(stagedInMask_ == 0,
               "hard-fault purge ran mid-cycle (router ", id_, ")");
    for (int p = 0; p < params_.numPorts; ++p) {
        if (!faults_ || !retry_[p])
            continue;
        // The retry copy's original is (or will be, on resend) in the
        // downstream neighbour's buffer: judge it at that position.
        // (Retry entries exist only on router-to-router mesh links.)
        const NodeId nb = p >= kPortNorth && p <= kPortWest
                              ? mesh_.neighbor(id_, p)
                              : kInvalidNode;
        const NodeId at = nb == kInvalidNode ? id_ : nb;
        const int in_port =
            nb == kInvalidNode ? p : Mesh::oppositePort(p);
        bool bad = false;
        for (const FlitDesc &d : retry_[p]->flit.parts)
            bad = bad || condemned(at, in_port, d);
        if (!bad)
            continue;
        const WireFlit flushed = retry_[p]->flit;
        retry_[p].reset();
        for (const FlitDesc &d : flushed.parts)
            removed.push_back(d);
        // The original send consumed a downstream credit that will
        // never be returned (the receiver nacked / never buffered the
        // value); refund it so flow control stays exact.
        if (outTarget_[p].connected())
            refundRetryCredit(p, flushed);
    }
}

void
Router::purgeFlits(const FlitCondemned &condemned,
                   std::vector<FlitDesc> &removed)
{
    for (int p = 0; p < params_.numPorts; ++p)
        purgePlain(in_[p], p, condemned, removed,
                   [this, p] { returnCredit(p); });
    purgeLinkState(condemned, removed);
}

void
Router::onTableRebuild()
{
    degraded_ = true;
}

std::unique_ptr<Arbiter>
Router::makeArbiter() const
{
    switch (params_.arbiterKind) {
      case ArbiterKind::RoundRobin:
        return std::make_unique<RoundRobinArbiter>(params_.numPorts);
      case ArbiterKind::FixedPriority:
        return std::make_unique<FixedPriorityArbiter>(params_.numPorts);
      case ArbiterKind::Matrix:
        return std::make_unique<MatrixArbiter>(params_.numPorts);
    }
    panic("unknown arbiter kind");
}

template <typename Ar, typename Self>
void
Router::layout(Ar &ar, Self &self, snap::Scope scope)
{
    // Snapshots are taken between steps: commit() has latched every
    // staged arrival, so staged state is structurally empty.
    NOX_ASSERT(self.stagedInMask_ == 0 && self.stagedCreditMask_ == 0,
               "snapshot with staged arrivals (mid-step)");
    snap::tag(ar, snap::fourcc("ROUT"));
    snap::ioExpect(ar, self.id_, "router id mismatch (stream desync)");
    snap::ioExpect(ar, self.connectedOutMask_,
                   "router output wiring mismatch: the snapshot's fault "
                   "map was not replayed onto this network");
    snap::io(ar, self.degraded_);
    for (auto &f : self.in_)
        snap::io(ar, f);
    for (auto &c : self.credits_)
        snap::io(ar, c);
    snap::ioExpect(ar, self.faults_ != nullptr,
                   "fault-injection presence mismatch (wrong config)");
    if (self.faults_) {
        for (std::size_t p = 0; p < self.retry_.size(); ++p) {
            snap::ioOptional(ar, self.retry_[p], [](auto &a, auto &e) {
                snap::fields(a, e.flit, e.due, e.nacked);
            });
            snap::fields(ar, self.lastLinkSend_[p], self.creditsLost_[p]);
        }
    }
    // Energy counters are kernel-dependent (the activity kernel
    // clock-gates retired routers), so the digest scope omits them.
    if (scope == snap::Scope::Snapshot)
        snap::io(ar, self.energy_);
}

void
Router::serialize(snap::Writer &w, snap::Scope scope) const
{
    layout(w, *this, scope);
}

void
Router::restore(snap::Reader &r)
{
    layout(r, *this, snap::Scope::Snapshot);
}

} // namespace nox
