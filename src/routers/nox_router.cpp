#include "routers/nox_router.hpp"

#include <bit>

#include "common/log.hpp"
#include "snapshot/io.hpp"

namespace nox {

NoxRouter::NoxRouter(NodeId id, const Mesh &mesh,
                     const RoutingTable &table,
                     const RouterParams &params)
    : Router(id, mesh, table, params)
{
    decoders_.resize(static_cast<std::size_t>(params.numPorts));
    out_.resize(static_cast<std::size_t>(params.numPorts));
    for (auto &o : out_) {
        o.switchMask = allPortsMask();
        o.arbMask = allPortsMask();
        o.arb = makeArbiter();
    }
    scratchViews_.resize(static_cast<std::size_t>(params.numPorts));
    scratchRequests_.resize(static_cast<std::size_t>(params.numPorts));
}

void
NoxRouter::evaluate(Cycle now)
{
    // Per-input decode views: what each input port can present to the
    // switch this cycle (§2.4). Encoded heads consume the cycle
    // latching into the decode register.
    const int ports = numPorts();
    const RequestMask all = allPortsMask();
    // Hoisted observer gate: with provenance off the per-flit charge
    // loops below vanish behind this one predictable branch.
    LatencyProvenance *const prov = prov_;
    // Member scratch — per-call allocation would dominate evaluate().
    auto &views = scratchViews_;
    auto &requests_for = scratchRequests_;
    // Hand-rolled zeroing: assign() lowers to a libc memset call,
    // measurable at one call per router per cycle.
    for (int o = 0; o < ports; ++o)
        requests_for[static_cast<std::size_t>(o)] = 0;
    for (int p = 0; p < ports; ++p) {
        // Idle port (no buffered wire values, no open decode chain):
        // nothing to present, nothing to bill. views[p] keeps last
        // cycle's contents, unreachable while no request mask names p.
        if (in_[p].empty() && !decoders_[p].registerValid())
            continue;
        DecodeView &v = views[p];
        v = decoders_[p].step(in_[p], decodeSite(p), now,
                              creditReturn(p));
        if (v.presented)
            requests_for[routeOf(*v.presented)] |= maskBit(p);
    }

    for (RequestMask cm = connectedOutputs(); cm; cm &= cm - 1) {
        const int o = std::countr_zero(cm);
        OutState &st = out_[o];

        const RequestMask requests = requests_for[o];

        // Switch requests are gated by downstream credits and by the
        // link-level retry protocol (which owns the wire until its
        // pending flit is acknowledged); when the output is back-
        // pressured everything (including the masks) simply holds.
        if (!haveCredit(o) || linkBusy(o, now)) {
            if (prov) {
                const LatencyComponent c =
                    linkBusy(o, now) ? LatencyComponent::Retransmit
                                     : LatencyComponent::CreditStall;
                for (RequestMask m = requests; m; m &= m - 1)
                    provStall(*views[std::countr_zero(m)].presented, c,
                              now);
            }
            continue;
        }

        // Mode-residency accounting (only for outputs with activity
        // potential: connected and credit-eligible this cycle).
        if (st.lockOwner >= 0)
            noxStats_.lockedCycles += 1;
        else if (st.mode == Mode::Recovery)
            noxStats_.recoveryCycles += 1;
        else
            noxStats_.scheduledCycles += 1;

        if (st.lockOwner >= 0) {
            // Exclusive multi-flit service: no other arbitration
            // winners until the tail flit has passed (§2.7). On the
            // tail cycle itself the output arbiter resumes Scheduled-
            // mode operation, pre-scheduling a waiting input for the
            // cycle after the tail — the §2.6 behaviour that lets the
            // NoX perform like a perfectly speculating router when
            // requests can be non-speculatively pre-scheduled.
            const int p = st.lockOwner;
            if (degraded_ &&
                !((requests & maskBit(p)) &&
                  views[p].presented->packet == st.lockPacket)) {
                // After a mid-run table rebuild the locked packet may
                // have been purged, rerouted, or interleaved with
                // foreign flits; abandon the lock and let the
                // remaining flits re-arbitrate flit-wise.
                unlockOutput(st);
                if (prov) {
                    for (RequestMask m = requests; m; m &= m - 1)
                        provStall(*views[std::countr_zero(m)].presented,
                                  LatencyComponent::Reroute, now);
                }
                continue;
            }
            if (prov) {
                for (RequestMask m = requests & ~maskBit(p); m;
                     m &= m - 1)
                    provStall(*views[std::countr_zero(m)].presented,
                              LatencyComponent::ArbLoss, now);
            }
            if (requests & maskBit(p)) {
                const FlitDesc d = *views[p].presented;
                NOX_ASSERT(d.packet == st.lockPacket,
                           "foreign flit inside locked NoX output");
                traverseSingle(p, o, views[p], now);
                if (d.isTail()) {
                    unlockOutput(st);
                    const RequestMask others =
                        requests & ~maskBit(p);
                    if (others) {
                        const int g = st.arb->grant(others);
                        energy_.arbDecisions += 1;
                        trace(TraceEventKind::Arbitrate, o,
                              static_cast<std::uint64_t>(g),
                              static_cast<std::uint32_t>(others));
                        st.mode = Mode::Scheduled;
                        st.switchMask = maskBit(g);
                        st.arbMask = all & ~maskBit(g);
                        energy_.maskUpdates += 1;
                    }
                }
            }
            continue;
        }

        if (st.mode == Mode::Recovery) {
            // Recovery: switch mask == arb mask; collisions resolve
            // through successive masking of past winners.
            const RequestMask part = requests & st.switchMask;
            if (prov) {
                // Requesters masked out by the collision-recovery
                // automaton wait for past winners' chains to clear.
                for (RequestMask m = requests & ~part; m; m &= m - 1)
                    provStall(*views[std::countr_zero(m)].presented,
                              LatencyComponent::XorRecovery, now);
            }
            if (!part)
                continue;
            const int fanin = std::popcount(part);

            if (fanin == 1) {
                const int p = std::countr_zero(part);
                const FlitDesc d = *views[p].presented;
                // The arbiter ran in parallel; its (unneeded) grant is
                // still a decision for energy purposes and RR state.
                st.arb->grant(part);
                energy_.arbDecisions += 1;
                noxStats_.cleanTraversals += 1;
                traverseSingle(p, o, views[p], now);
                if (d.isMultiFlit() && d.isHead() && !d.isTail()) {
                    lockOutput(st, p, d.packet);
                } else {
                    // Masking all remaining inputs would inhibit
                    // everything -> re-enable all

                    st.switchMask = all;
                    st.arbMask = all;
                }
                continue;
            }

            // Collision. Multi-flit involvement forces an abort.
            bool multi_flit = false;
            for (RequestMask m = part; m; m &= m - 1) {
                if (views[std::countr_zero(m)].presented->isMultiFlit())
                    multi_flit = true;
            }

            if (multi_flit) {
                // Abort: indeterminate value driven, nothing freed;
                // the grant winner owns the output until its tail.
                driveWasted(o);
                energy_.abortCycles += 1;
                noxStats_.aborts += 1;
                energy_.xbarInputDrives +=
                    static_cast<std::uint64_t>(fanin);
                const int g = st.arb->grant(part);
                energy_.arbDecisions += 1;
                trace(TraceEventKind::Arbitrate, o,
                      static_cast<std::uint64_t>(g),
                      static_cast<std::uint32_t>(part));
                trace(TraceEventKind::NoxAbort, o,
                      views[g].presented->uid,
                      static_cast<std::uint32_t>(fanin));
                if (prov) {
                    // Abort wastes the cycle for every collider,
                    // including the grant winner.
                    for (RequestMask m = part; m; m &= m - 1)
                        provStall(*views[std::countr_zero(m)].presented,
                                  LatencyComponent::XorRecovery, now);
                }
                lockOutput(st, g, views[g].presented->packet);
                continue;
            }

            // Productive XOR-coded transfer (§2.2): the output is the
            // XOR of all colliding single-flit packets; the arbiter's
            // winner is freed immediately. Member scratch again: the
            // collision list is rebuilt every encoded transfer.
            auto &colliding = scratchColliding_;
            colliding.clear();
            for (RequestMask m = part; m; m &= m - 1) {
                colliding.push_back(
                    *views[std::countr_zero(m)].presented);
                energy_.xbarInputDrives += 1;
            }
            const int g = st.arb->grant(part);
            energy_.arbDecisions += 1;
            trace(TraceEventKind::Arbitrate, o,
                  static_cast<std::uint64_t>(g),
                  static_cast<std::uint32_t>(part));
            noxStats_.collisionsBySize[static_cast<std::size_t>(
                fanin)] += 1;
            trace(TraceEventKind::XorEncode, o,
                  views[g].presented->uid,
                  static_cast<std::uint32_t>(fanin));
            if (prov) {
                // Only the arbitration winner is freed by an encoded
                // transfer; the other colliders begin (or continue)
                // their XOR-recovery wait.
                for (RequestMask m = part & ~maskBit(g); m; m &= m - 1)
                    provStall(*views[std::countr_zero(m)].presented,
                              LatencyComponent::XorRecovery, now);
                provSend(*views[g].presented, o, now);
            }
            decoders_[g].acceptPresented(in_[g], views[g], decodeSite(g),
                                         creditReturn(g));
            sendFlit(o, WireFlit::combine(colliding));

            const RequestMask losers = part & ~maskBit(g);
            energy_.maskUpdates += 1;
            NOX_ASSERT(losers != 0, "collision with no losers");
            if (std::popcount(losers) == 1) {
                st.mode = Mode::Scheduled;
                st.switchMask = losers;
                st.arbMask = all & ~losers;
            } else {
                st.switchMask = losers;
                st.arbMask = losers;
            }
            continue;
        }

        // Scheduled mode: one input enabled for traversal, everyone
        // else enabled for arbitration (§2.6).
        const RequestMask sw = requests & st.switchMask;
        NOX_ASSERT(std::popcount(sw) <= 1,
                   "multiple switch-enabled inputs in Scheduled mode");
        if (prov) {
            // Requesters not pre-scheduled for the switch this cycle
            // wait out (at least) one arbitration round.
            for (RequestMask m = requests & ~sw; m; m &= m - 1)
                provStall(*views[std::countr_zero(m)].presented,
                          LatencyComponent::ArbLoss, now);
        }
        if (sw) {
            const int p = std::countr_zero(sw);
            const FlitDesc d = *views[p].presented;
            noxStats_.prescheduled += 1;
            traverseSingle(p, o, views[p], now);
            if (d.isMultiFlit() && d.isHead() && !d.isTail()) {
                lockOutput(st, p, d.packet);
                continue;
            }
        }

        const RequestMask arb_requests = requests & st.arbMask;
        energy_.maskUpdates += 1;
        if (arb_requests) {
            const int g = st.arb->grant(arb_requests);
            energy_.arbDecisions += 1;
            trace(TraceEventKind::Arbitrate, o,
                  static_cast<std::uint64_t>(g),
                  static_cast<std::uint32_t>(arb_requests));
            st.switchMask = maskBit(g);
            st.arbMask = all & ~maskBit(g);
        } else {
            // No grant generated: transition back to the optimistic
            // Recovery mode with everything enabled.
            st.mode = Mode::Recovery;
            st.switchMask = all;
            st.arbMask = all;
        }
    }
}

bool
NoxRouter::quiescent() const
{
    if (!Router::quiescent())
        return false;
    for (const XorDecoder &d : decoders_) {
        if (d.registerValid())
            return false; // mid-decode of an encoded chain
    }
    const RequestMask all = allPortsMask();
    for (const OutState &st : out_) {
        if (st.lockOwner >= 0 || st.mode != Mode::Recovery ||
            st.switchMask != all || st.arbMask != all)
            return false;
    }
    return true;
}

void
NoxRouter::traverseSingle(int in_port, int out_port,
                          const DecodeView &view, Cycle now)
{
    WireFlit w = WireFlit::fromDesc(*view.presented);
    provSend(w.parts.front(), out_port, now);
    energy_.xbarInputDrives += 1;
    // Invalidates view.presented.
    decoders_[in_port].acceptPresented(in_[in_port], view,
                                       decodeSite(in_port),
                                       creditReturn(in_port));
    sendFlit(out_port, std::move(w));
}

void
NoxRouter::lockOutput(OutState &st, int in_port, PacketId packet)
{
    st.mode = Mode::Scheduled;
    st.lockOwner = in_port;
    st.lockPacket = packet;
    st.switchMask = maskBit(in_port);
    st.arbMask = 0;
    energy_.maskUpdates += 1;
}

void
NoxRouter::unlockOutput(OutState &st)
{
    st.mode = Mode::Recovery;
    st.lockOwner = -1;
    st.lockPacket = kInvalidPacket;
    st.switchMask = allPortsMask();
    st.arbMask = allPortsMask();
    energy_.maskUpdates += 1;
}

void
NoxRouter::killInput(int in_port, std::vector<FlitDesc> &lost)
{
    Router::killInput(in_port, lost);
    // The link died with its sender: returnCredit() is a no-op now.
    decoders_[in_port].dropOpenChain(in_[in_port], lost,
                                     creditReturn(in_port));
}

void
NoxRouter::purgeFlits(const FlitCondemned &condemned,
                      std::vector<FlitDesc> &removed)
{
    const int ports = numPorts();
    // A mid-run rebuild resets every output's subset-chain masks, so
    // chains still open at our inputs will never be continued by the
    // upstream output: break them now (idempotent — once dropped, the
    // port's trailing chain is closed) before judging survivors.
    // Clean flits lost alongside are reported in @p removed and
    // cascade through the network's fixpoint.
    for (int p = 0; p < ports; ++p)
        decoders_[p].dropOpenChain(in_[p], removed, creditReturn(p));
    for (int p = 0; p < ports; ++p) {
        decoders_[p].purgeContaminated(
            in_[p],
            [&](const FlitDesc &d) { return condemned(id_, p, d); },
            removed, creditReturn(p));
    }
    purgeLinkState(condemned, removed);
}

void
NoxRouter::onTableRebuild()
{
    Router::onTableRebuild();
    for (OutState &st : out_) {
        st.mode = Mode::Recovery;
        st.lockOwner = -1;
        st.lockPacket = kInvalidPacket;
        st.switchMask = allPortsMask();
        st.arbMask = allPortsMask();
    }
}

void
NoxRouter::debugPerturb()
{
    out_[0].arb->perturb();
}

template <typename Ar, typename Self>
void
NoxRouter::layout(Ar &ar, Self &self, snap::Scope scope)
{
    for (auto &d : self.decoders_)
        snap::io(ar, d);
    for (auto &st : self.out_) {
        snap::ioEnum(ar, st.mode, Mode::Scheduled);
        snap::fields(ar, st.switchMask, st.arbMask);
        snap::ioBounded(ar, st.lockOwner, -1, self.numPorts() - 1,
                        "NoX lock owner out of range");
        snap::fields(ar, st.lockPacket, *st.arb);
    }
    auto &s = self.noxStats_;
    snap::io(ar, s.collisionsBySize);
    // The mode-residency counters advance on every *ticked* cycle
    // with an eligible output, so — like energy events — they are
    // kernel-dependent: the activity kernel clock-gates idle routers
    // and accrues no residency there. The digest scope omits them;
    // the event-driven counters below fire only on real traffic and
    // must agree across kernels, so they stay in the digest.
    if (scope == snap::Scope::Snapshot)
        snap::fields(ar, s.recoveryCycles, s.scheduledCycles,
                     s.lockedCycles);
    snap::fields(ar, s.cleanTraversals, s.prescheduled, s.aborts);
}

void
NoxRouter::serialize(snap::Writer &w, snap::Scope scope) const
{
    Router::serialize(w, scope);
    layout(w, *this, scope);
}

void
NoxRouter::restore(snap::Reader &r)
{
    Router::restore(r);
    layout(r, *this, snap::Scope::Snapshot);
}

} // namespace nox
