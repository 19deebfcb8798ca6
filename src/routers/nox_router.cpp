#include "routers/nox_router.hpp"

#include <bit>

#include "common/log.hpp"
#include "noc/fault_injector.hpp"
#include "snapshot/io.hpp"

namespace nox {

namespace {

/** Append @p w 's constituent flits to @p out, skipping uids already
 *  collected (successive chain values are nested subsets). */
void
collectUnique(const WireFlit &w, std::vector<FlitDesc> &out)
{
    for (const FlitDesc &d : w.parts) {
        bool seen = false;
        for (const FlitDesc &e : out)
            seen = seen || e.uid == d.uid;
        if (!seen)
            out.push_back(d);
    }
}

} // namespace

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
    const bool lenient = faults_ != nullptr;
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
        // Lenient decode under fault injection: integrity violations
        // surface in DecodeView::fault instead of killing the run.
        DecodeView &v = views[p];
        v = decoders_[p].view(in_[p], lenient);
        if (v.latchBubble) {
            if (prov) {
                // The cycle is consumed latching an encoded head:
                // bill the chain constituent already accepted to this
                // router (the location guard skips constituents still
                // buffered upstream — they accrue their own charges
                // there).
                for (const FlitDesc &d : in_[p].front().parts)
                    provStall(d, LatencyComponent::XorRecovery, now);
            }
            decoders_[p].latch(in_[p]);
            energy_.bufferReads += 1;
            energy_.decodeLatches += 1;
            returnCredit(p);
            continue;
        }
        if (v.presented) {
            requests_for[routeOf(*v.presented)] |= maskBit(p);
        } else if (prov && decoders_[p].registerValid()) {
            // Decode register loaded but the chain's next wire value
            // has not arrived yet: the flit it will recover is stuck
            // in XOR recovery, not on a link.
            for (const FlitDesc &d :
                 decoders_[p].registerValue().parts)
                provStall(d, LatencyComponent::XorRecovery, now);
        }
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
            acceptPresented(g, views[g]);
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
NoxRouter::acceptPresented(int port, const DecodeView &view)
{
    if (view.decodedByXor) {
        energy_.decodeOps += 1;
        trace(TraceEventKind::XorDecode, port, view.presented->uid);
    }
    // Count integrity violations when the flit is accepted (view()
    // re-inspects the same head every cycle; accept happens once).
    if (view.fault == DecodeFault::PayloadMismatch) {
        faults_->onDecodeMismatch();
        trace(TraceEventKind::DecodeFault, port, view.presented->uid);
        if (tracer_)
            tracer_->triggerFlightDump("decode-fault", {id_});
    }
    const bool popped = decoders_[port].accept(in_[port]);
    if (popped) {
        energy_.bufferReads += 1;
        returnCredit(port);
    }
}

void
NoxRouter::traverseSingle(int in_port, int out_port,
                          const DecodeView &view, Cycle now)
{
    WireFlit w = WireFlit::fromDesc(*view.presented);
    provSend(w.parts.front(), out_port, now);
    energy_.xbarInputDrives += 1;
    acceptPresented(in_port, view); // invalidates view.presented
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
    dropOpenChain(in_port, lost);
}

void
NoxRouter::dropOpenChain(int in_port, std::vector<FlitDesc> &lost)
{
    // Scan the port for a decode chain left open forever — either
    // its link died, or a mid-run table rebuild reset the upstream
    // output masks so the subset chain will never be continued.
    // Simulate future decode progress: a chain closes on its final
    // (plain) wire value; trailing encoded values with no closure
    // can never be recovered.
    XorDecoder &dec = decoders_[in_port];
    FlitFifo &fifo = in_[in_port];
    const std::size_t n = fifo.size();
    std::vector<WireFlit> entries;
    entries.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        entries.push_back(fifo.pop());

    bool open = dec.registerValid();
    std::ptrdiff_t start = open ? -1 : 0; // -1 = the register itself
    for (std::size_t i = 0; i < n; ++i) {
        if (open) {
            if (!entries[i].encoded)
                open = false;
        } else if (entries[i].encoded) {
            open = true;
            start = static_cast<std::ptrdiff_t>(i);
        }
    }
    if (open) {
        std::vector<FlitDesc> dropped;
        if (start < 0) {
            collectUnique(dec.registerValue(), dropped);
            dec.reset();
            start = 0; // every buffered value continued that chain
        }
        for (std::size_t i = static_cast<std::size_t>(start); i < n;
             ++i) {
            collectUnique(entries[i], dropped);
            // Freed buffer slot: credit the (live) upstream router —
            // a no-op when this port's link died with its sender.
            returnCredit(in_port);
        }
        entries.resize(static_cast<std::size_t>(start));
        lost.insert(lost.end(), dropped.begin(), dropped.end());
    }
    for (WireFlit &w : entries)
        fifo.push(std::move(w));
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
    for (int p = 0; p < ports; ++p)
        dropOpenChain(p, removed);
    for (int p = 0; p < ports; ++p) {
        FlitFifo &fifo = in_[p];
        const std::size_t n = fifo.size();
        std::vector<WireFlit> entries;
        entries.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            entries.push_back(fifo.pop());

        bool contaminated = false;
        if (decoders_[p].registerValid()) {
            for (const FlitDesc &d :
                 decoders_[p].registerValue().parts)
                contaminated = contaminated || condemned(id_, p, d);
        }
        for (const WireFlit &w : entries) {
            for (const FlitDesc &d : w.parts)
                contaminated = contaminated || condemned(id_, p, d);
        }
        if (!contaminated) {
            for (WireFlit &w : entries)
                fifo.push(std::move(w));
            continue;
        }

        // Wire values are XOR combinations: one condemned constituent
        // poisons every chain value it appears in, so the whole port
        // content is dropped. Clean flits lost alongside are reported
        // in @p removed and cascade through the network's fixpoint.
        std::vector<FlitDesc> dropped;
        if (decoders_[p].registerValid()) {
            collectUnique(decoders_[p].registerValue(), dropped);
            decoders_[p].reset();
        }
        for (const WireFlit &w : entries) {
            collectUnique(w, dropped);
            returnCredit(p); // one buffer slot per dropped wire value
        }
        removed.insert(removed.end(), dropped.begin(), dropped.end());
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
