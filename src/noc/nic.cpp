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
    // Idle sink (no buffered wire values, no open decode chain): skip
    // even the decode-view construction — on quiet nodes this is the
    // whole per-cycle cost of the ejection side.
    if (dead_ || (sinkFifo_.empty() && !decoder_.registerValid()))
        return;
    const DecodeView v =
        decoder_.step(sinkFifo_, decodeSite(), now, creditReturn());
    if (!v.presented)
        return;
    // Copy before accepting: the view points into the FIFO head /
    // decoder scratch, both invalidated by the pop.
    const FlitDesc d = *v.presented;
    decoder_.acceptPresented(sinkFifo_, v, decodeSite(), creditReturn());
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
        lost.insert(lost.end(), q.begin(), q.end());
        q.clear();
    }
    // No credits: the router at the other end died too.
    decoder_.dropAll(sinkFifo_, lost, [](int) {});
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

    // Ejection side: the sink is a NoX input port. A chain still open
    // here will never be continued after the rebuild reset the
    // upstream output masks, and a condemned constituent poisons
    // every value it appears in.
    decoder_.dropOpenChain(sinkFifo_, removed, creditReturn());
    decoder_.purgeContaminated(
        sinkFifo_,
        [&](const FlitDesc &d) {
            return condemned(router_->id(), localPort_, d);
        },
        removed, creditReturn());
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
