#include "noc/nic.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "noc/fault_injector.hpp"
#include "noc/snapshot_codec.hpp"
#include "noc/transport.hpp"

namespace nox {

Nic::Nic(NodeId node, int sink_buffer_depth)
    : node_(node), sinkFifo_(static_cast<std::size_t>(sink_buffer_depth))
{
    injectQueue_.resize(1);
}

void
Nic::connectRouter(Router *router, int local_port)
{
    NOX_ASSERT(router, "null router");
    router_ = router;
    localPort_ = local_port;

    // Our sink FIFO is the downstream buffer of the router's local
    // output; freed source-queue slots come back from its local input.
    Router::FlitTarget ft;
    ft.nic = this;
    router->connectOutput(local_port, ft,
                          static_cast<int>(sinkFifo_.capacity()));

    Router::CreditTarget ct;
    ct.nic = this;
    router->connectInputCredit(local_port, ct);

    const int vcs = router->vcCount();
    NOX_ASSERT(sourceQueueFlits() == 0,
               "NIC rewired with packets queued");
    injectQueue_.resize(static_cast<std::size_t>(vcs));
    injectCredits_.assign(
        static_cast<std::size_t>(vcs),
        static_cast<int>(router->inputFifo(local_port).capacity()));
    stagedInjectCredits_.assign(static_cast<std::size_t>(vcs), 0);
}

void
Nic::evaluateInject(Cycle now)
{
    if (dead_)
        return;
    // One flit per cycle into the router's local port; round-robin
    // across the per-VC source queues with available credits.
    const int vcs = static_cast<int>(injectQueue_.size());
    for (int i = 0; i < vcs; ++i) {
        // Wrap without the modulo: a runtime integer division per NIC
        // per cycle is measurable in the always-tick kernel.
        int lane = injectRr_ + i;
        if (lane >= vcs)
            lane -= vcs;
        const auto vc = static_cast<std::size_t>(lane);
        if (injectQueue_[vc].empty() || injectCredits_[vc] <= 0)
            continue;
        FlitDesc d = injectQueue_[vc].front();
        injectQueue_[vc].pop_front();
        --injectCredits_[vc];
        d.injectCycle = now;
        trace(TraceEventKind::FlitInject, d.uid,
              static_cast<std::uint32_t>(d.seq));
        if (prov_)
            prov_->onInject(d.uid, router_->id(), now);
        router_->stageFlit(localPort_, WireFlit::fromDesc(d));
        energy_.localLinkFlits += 1;
        injectRr_ = lane + 1 == vcs ? 0 : lane + 1;
        return;
    }
}

void
Nic::evaluateSink(Cycle now)
{
    if (dead_)
        return;
    // Idle sink (no buffered wire values, no open decode chain): skip
    // even the decode-view construction — on quiet nodes this is the
    // whole per-cycle cost of the ejection side.
    if (sinkFifo_.empty() && !decoder_.registerValid())
        return;
    const DecodeView v = decoder_.view(sinkFifo_, faults_ != nullptr);
    if (v.latchBubble) {
        if (prov_) {
            // The cycle is consumed latching an encoded head: bill the
            // chain constituent already accepted toward this sink (the
            // location guard skips constituents still upstream).
            for (const FlitDesc &d : sinkFifo_.front().parts)
                prov_->onStall(d.uid, LatencyComponent::XorRecovery,
                               node_, true, now);
        }
        const int vc = sinkFifo_.front().vc;
        decoder_.latch(sinkFifo_);
        energy_.bufferReads += 1;
        energy_.decodeLatches += 1;
        router_->stageCreditVc(localPort_, vc);
        return;
    }
    if (!v.presented) {
        if (prov_ && decoder_.registerValid()) {
            // Decode register loaded but the chain's next wire value
            // has not arrived: the flit it will recover waits on XOR
            // machinery, not on the link.
            for (const FlitDesc &d : decoder_.registerValue().parts)
                prov_->onStall(d.uid, LatencyComponent::XorRecovery,
                               node_, true, now);
        }
        return;
    }
    if (v.decodedByXor) {
        energy_.decodeOps += 1;
        trace(TraceEventKind::XorDecode, v.presented->uid);
    }
    // Mid-chain corruption surfaces here when the NoX ejection port
    // decodes it (counted once, at acceptance).
    if (v.fault == DecodeFault::PayloadMismatch) {
        faults_->onDecodeMismatch();
        trace(TraceEventKind::DecodeFault, v.presented->uid);
        if (tracer_)
            tracer_->triggerFlightDump("decode-fault", {node_});
    }
    // Copy before accept(): the view points into the FIFO head /
    // decoder scratch, both invalidated by the pop.
    const FlitDesc d = *v.presented;
    const int vc = sinkFifo_.empty() ? 0 : sinkFifo_.front().vc;
    const bool popped = decoder_.accept(sinkFifo_);
    if (popped) {
        energy_.bufferReads += 1;
        router_->stageCreditVc(localPort_, vc);
    }
    deliver(d, now);
}

void
Nic::deliver(const FlitDesc &flit, Cycle now)
{
    NOX_ASSERT(flit.dest == node_, "flit delivered to wrong node: dest ",
               flit.dest, " at ", node_);
    // Exactly-once door: a flit of a logical packet this flow already
    // completed (or abandoned) is a duplicate — some other attempt won
    // the race, or the retry budget ran out. Dropped before touching
    // arrival, stats or listener state, a straggler can never cause a
    // second completion.
    if (transport_ && transport_->duplicateFlit(flit)) {
        faults_->onDupSuppressed();
        trace(TraceEventKind::DupSuppress, flit.uid,
              packetAttempt(flit.packet));
        if (prov_)
            prov_->forgetFlit(flit.uid);
        return;
    }
    if (flit.payload != expectedPayload(flit.packet, flit.seq)) {
        // End-to-end payload check: the last line of defence. Under
        // fault injection a corrupted delivery is an accounted escape
        // (it can only happen with link protection off); without an
        // injector it is a simulator bug, as before.
        NOX_ASSERT(faults_ != nullptr,
                   "payload corruption detected at sink for packet ",
                   flit.packet, " flit ", flit.seq);
        faults_->onCorruptedDelivery();
        trace(TraceEventKind::CorruptEscape, flit.uid,
              static_cast<std::uint32_t>(flit.seq));
        if (tracer_)
            tracer_->triggerFlightDump("corrupt-escape", {node_});
    }

    trace(TraceEventKind::FlitEject, flit.uid,
          static_cast<std::uint32_t>(flit.seq));
    if (listener_)
        listener_->onFlitDelivered(node_, flit, now);

    // Single-flit packets complete on arrival: no partial-arrival
    // record to create and immediately erase. Same observable event
    // order as the general path below.
    if (flit.packetSize == 1) {
        if (prov_)
            prov_->onDelivered(flit, now, true);
        if (listener_)
            listener_->onPacketCompleted(node_, flit, flit.injectCycle,
                                         now);
        return;
    }

    Arrival &a = arrived_[flit.packet];
    if (a.count == 0 || flit.injectCycle < a.headInject)
        a.headInject = flit.injectCycle;
    a.count += 1;
    NOX_ASSERT(a.count <= flit.packetSize, "packet ", flit.packet,
               " delivered more flits than its size");
    if (prov_)
        prov_->onDelivered(flit, now, a.count == flit.packetSize);
    if (a.count == flit.packetSize) {
        const Cycle head_inject = a.headInject;
        arrived_.erase(flit.packet);
        if (listener_)
            listener_->onPacketCompleted(node_, flit, head_inject,
                                         now);
    }
}

void
Nic::commit()
{
    if (sinkFifo_.staged()) {
        energy_.bufferWrites += 1;
        sinkFifo_.publish();
    }
    for (std::size_t v = 0; v < injectCredits_.size(); ++v) {
        injectCredits_[v] += stagedInjectCredits_[v];
        stagedInjectCredits_[v] = 0;
    }
}

void
Nic::enqueuePacket(const std::vector<FlitDesc> &flits)
{
    NOX_ASSERT(!flits.empty(), "empty packet");
    auto vc = static_cast<std::size_t>(flits.front().vc);
    NOX_ASSERT(vc < injectQueue_.size(), "packet VC out of range");
    for (const auto &f : flits)
        injectQueue_[vc].push_back(f);
    wake();
}

void
Nic::stageSinkFlit(WireFlit &&flit)
{
    sinkFifo_.stage(std::move(flit));
    wake();
}

void
Nic::stageInjectCredit(int count, int vc)
{
    NOX_ASSERT(static_cast<std::size_t>(vc) <
                   stagedInjectCredits_.size(),
               "credit VC out of range");
    stagedInjectCredits_[static_cast<std::size_t>(vc)] += count;
    wake();
}

void
Nic::killAttached(std::vector<FlitDesc> &lost)
{
    if (dead_)
        return;
    dead_ = true;
    NOX_ASSERT(!sinkFifo_.staged(), "hard fault applied mid-cycle");
    for (auto &q : injectQueue_) {
        for (const FlitDesc &d : q)
            lost.push_back(d);
        q.clear();
    }
    while (!sinkFifo_.empty()) {
        const WireFlit w = sinkFifo_.pop();
        for (const FlitDesc &d : w.parts)
            lost.push_back(d);
    }
    if (decoder_.registerValid()) {
        for (const FlitDesc &d : decoder_.registerValue().parts)
            lost.push_back(d);
        decoder_.reset();
    }
    std::fill(injectCredits_.begin(), injectCredits_.end(), 0);
    std::fill(stagedInjectCredits_.begin(),
              stagedInjectCredits_.end(), 0);
    arrived_.clear();
}

void
Nic::purgeCondemned(const Router::FlitCondemned &condemned,
                    std::vector<FlitDesc> &removed)
{
    if (dead_)
        return;
    NOX_ASSERT(!sinkFifo_.staged(), "hard-fault purge ran mid-cycle");

    // Source queues: drop condemned flits in place (they never left
    // the NIC, so no credits are involved).
    for (auto &q : injectQueue_) {
        std::deque<FlitDesc> keep;
        for (const FlitDesc &d : q) {
            if (condemned(router_->id(), localPort_, d))
                removed.push_back(d);
            else
                keep.push_back(d);
        }
        q.swap(keep);
    }

    // Ejection side: like a NoX input port, the FIFO holds wire
    // values. A chain still open here will never be continued after
    // the rebuild reset the upstream output masks — drop the
    // undecodable open suffix (register and/or trailing encoded
    // values) exactly as a NoX input port does.
    {
        const std::size_t n = sinkFifo_.size();
        std::vector<WireFlit> entries;
        entries.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            entries.push_back(sinkFifo_.pop());
        bool open = decoder_.registerValid();
        std::ptrdiff_t start = open ? -1 : 0; // -1 = the register
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
            if (start < 0) {
                for (const FlitDesc &d :
                     decoder_.registerValue().parts)
                    removed.push_back(d);
                decoder_.reset();
                start = 0;
            }
            for (std::size_t i = static_cast<std::size_t>(start);
                 i < n; ++i) {
                for (const FlitDesc &d : entries[i].parts)
                    removed.push_back(d);
                router_->stageCreditVc(localPort_, entries[i].vc);
            }
            entries.resize(static_cast<std::size_t>(start));
        }
        for (WireFlit &w : entries)
            sinkFifo_.push(std::move(w));
    }

    // The remaining chains are complete, but any condemned
    // constituent still poisons every value it appears in —
    // contamination drops the whole sink contents.
    bool contaminated = false;
    if (decoder_.registerValid()) {
        for (const FlitDesc &d : decoder_.registerValue().parts)
            contaminated = contaminated || condemned(router_->id(), localPort_, d);
    }
    const std::size_t n = sinkFifo_.size();
    for (std::size_t i = 0; i < n && !contaminated; ++i) {
        WireFlit w = sinkFifo_.pop();
        for (const FlitDesc &d : w.parts)
            contaminated = contaminated || condemned(router_->id(), localPort_, d);
        sinkFifo_.push(std::move(w));
    }
    if (!contaminated)
        return;
    if (decoder_.registerValid()) {
        for (const FlitDesc &d : decoder_.registerValue().parts)
            removed.push_back(d);
        decoder_.reset();
    }
    while (!sinkFifo_.empty()) {
        const WireFlit w = sinkFifo_.pop();
        for (const FlitDesc &d : w.parts)
            removed.push_back(d);
        // The slot frees up: its credit goes back to the (live)
        // router exactly as if the value had been accepted.
        router_->stageCreditVc(localPort_, w.vc);
    }
}

std::vector<std::pair<PacketId, std::uint32_t>>
Nic::partialPackets() const
{
    std::vector<std::pair<PacketId, std::uint32_t>> out;
    out.reserve(arrived_.size());
    for (const auto &[packet, arrival] : arrived_)
        out.emplace_back(packet, arrival.count);
    std::sort(out.begin(), out.end());
    return out;
}

bool
Nic::quiescent() const
{
    for (const auto &q : injectQueue_) {
        if (!q.empty())
            return false;
    }
    for (int staged : stagedInjectCredits_) {
        if (staged != 0)
            return false;
    }
    return sinkFifo_.empty() && !sinkFifo_.staged() &&
           !decoder_.registerValid();
}

template <typename Ar, typename Self>
void
Nic::layout(Ar &ar, Self &self, snap::Scope scope)
{
    NOX_ASSERT(!self.sinkFifo_.staged(), "snapshot with a staged sink flit");
    for (int staged : self.stagedInjectCredits_)
        NOX_ASSERT(staged == 0, "snapshot with staged credits");
    snap::tag(ar, snap::fourcc("NIC_"));
    snap::ioExpect(ar, self.node_, "NIC node id mismatch (stream desync)");
    snap::io(ar, self.dead_);
    snap::ioExpect(ar, std::uint64_t{self.injectQueue_.size()},
                   "NIC VC count mismatch (wrong geometry)");
    for (auto &q : self.injectQueue_)
        snap::ioSeq(ar, q, snap::kFlitDescBytes);
    for (auto &c : self.injectCredits_)
        snap::io(ar, c);
    snap::ioBounded(ar, self.injectRr_, 0,
                    static_cast<int>(self.injectQueue_.size()) - 1,
                    "NIC round-robin pointer out of range");
    snap::fields(ar, self.sinkFifo_, self.decoder_);
    snap::ioSortedMap(ar, self.arrived_, 20, [](auto &a, auto &arr) {
        snap::fields(a, arr.count, arr.headInject);
    });
    if (scope == snap::Scope::Snapshot)
        snap::io(ar, self.energy_);
}

void
Nic::serialize(snap::Writer &w, snap::Scope scope) const
{
    layout(w, *this, scope);
}

void
Nic::restore(snap::Reader &r)
{
    layout(r, *this, snap::Scope::Snapshot);
}

} // namespace nox
