#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/config.hpp"
#include "common/log.hpp"
#include "noc/snapshot_codec.hpp"

namespace nox {

namespace {

// Active sets are bitsets: member id is bit id%64 of word id/64.

bool
isMember(const std::vector<std::uint64_t> &set, NodeId id)
{
    return (set[static_cast<std::size_t>(id) / 64] >> (id % 64)) & 1;
}

void
setMember(std::vector<std::uint64_t> &set, NodeId id, bool member)
{
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    std::uint64_t &word = set[static_cast<std::size_t>(id) / 64];
    word = member ? word | bit : word & ~bit;
}

int
countMembers(const std::vector<std::uint64_t> &set)
{
    int n = 0;
    for (std::uint64_t word : set)
        n += std::popcount(word);
    return n;
}

/**
 * Visit the members of @p set in ascending id order, re-reading each
 * word after every visit: a member woken mid-walk above the current
 * id is visited too, as by a loop over per-component flags.
 */
template <typename Visit>
void
forEachMember(const std::vector<std::uint64_t> &set, Visit &&visit)
{
    const std::uint64_t *const words = set.data(); // never reallocated
    for (std::size_t w = 0; w < set.size(); ++w) {
        const auto base = static_cast<NodeId>(w * 64);
        if (words[w] == ~std::uint64_t{0}) {
            // A full word gains no member mid-walk, and a visit only
            // ever retires itself: every id, in order.
            for (NodeId id = base; id < base + 64; ++id)
                visit(id);
            continue;
        }
        for (std::uint64_t bits = words[w]; bits != 0;) {
            const int b = std::countr_zero(bits);
            visit(base + b);
            bits = words[w] & (~std::uint64_t{1} << b); // ids above b
        }
    }
}

} // namespace

std::string
DrainReport::summary() const
{
    std::ostringstream os;
    if (drained) {
        os << "drained by cycle " << stoppedAt;
        return os.str();
    }
    os << "drain timed out at cycle " << stoppedAt << " with "
       << stalledPackets << " stalled packet(s)";
    if (undeliverablePackets > 0) {
        os << " (plus " << undeliverablePackets
           << " written off as undeliverable after hard faults)";
    }
    os << "; ";
    os << busyRouters.size() << " busy router(s)";
    if (!busyRouters.empty()) {
        os << " [";
        for (std::size_t i = 0; i < busyRouters.size(); ++i)
            os << (i ? " " : "") << busyRouters[i];
        os << "]";
    }
    os << ", " << busyNics.size() << " busy NIC(s)";
    if (!busyNics.empty()) {
        os << " [";
        for (std::size_t i = 0; i < busyNics.size(); ++i)
            os << (i ? " " : "") << busyNics[i];
        os << "]";
    }
    if (!partialPackets.empty()) {
        os << "; partially delivered:";
        for (const auto &p : partialPackets)
            os << " packet " << p.packet << " (" << p.flitsArrived
               << " flits at node " << p.node << ")";
    }
    return os.str();
}

const char *
schedulingModeName(SchedulingMode mode)
{
    return mode == SchedulingMode::AlwaysTick ? "alwaystick" : "activity";
}

SchedulingMode
parseSchedulingMode(const char *name)
{
    const std::string_view n(name);
    if (n == "alwaystick")
        return SchedulingMode::AlwaysTick;
    if (n == "activity")
        return SchedulingMode::ActivityDriven;
    fatal("unknown scheduling mode '", n, "' (alwaystick | activity)");
}

NetworkParams
networkParamsFromConfig(const Config &config)
{
    NetworkParams p;
    p.width = config.getInt("width", p.width, 1, kMaxMeshSide);
    p.height = config.getInt("height", p.height, 1, kMaxMeshSide);
    p.concentration = config.getInt("concentration", p.concentration, 1,
                                    kMaxConcentration);
    p.router.bufferDepth = config.getInt(
        "buffer_depth", p.router.bufferDepth, 1, kMaxBufferDepth);
    p.sinkBufferDepth = p.router.bufferDepth;
    p.router.vcCount =
        config.getInt("vc_count", p.router.vcCount, 1, kMaxVcCount);
    // One node has no destination to send to: every traffic draw
    // would spin forever looking for one.
    if (p.width * p.height * p.concentration < 2) {
        fatal("width=", p.width, " height=", p.height,
              " concentration=", p.concentration,
              " is a single node (valid: at least 2 nodes)");
    }
    p.faults = faultParamsFromConfig(config);
    p.obs = obsParamsFromConfig(config);
    return p;
}

Network::Network(const NetworkParams &params, RouterFactory factory)
    : params_(params),
      mesh_(params.width, params.height, params.concentration),
      wiring_(mesh_, routers_, nics_),
      // Per-flow tables are only touched with faults enabled.
      flowNextSeq_(params.faults.enabled ? mesh_.numNodes() : 0),
      flowMaxDone_(params.faults.enabled ? mesh_.numNodes() : 0)
{
    NOX_ASSERT(factory, "router factory required");
    NOX_ASSERT(params.debugPerturbRouter >= 0 &&
                   params.debugPerturbRouter < mesh_.numRouters(),
               "perturb_router=", params.debugPerturbRouter,
               " is out of range (valid: 0..", mesh_.numRouters() - 1,
               ")");

    // Router radix follows the topology's concentration factor.
    RouterParams rp = params.router;
    rp.numPorts = mesh_.radix();
    params_.router = rp;

    const int nr = mesh_.numRouters();
    const int nn = mesh_.numNodes();
    routers_.reserve(static_cast<std::size_t>(nr));
    nics_.reserve(static_cast<std::size_t>(nn));

    for (NodeId r = 0; r < nr; ++r)
        routers_.push_back(factory(r, mesh_, wiring_.table(), rp));
    // Sinks hold one buffer's worth per VC (per-VC output credits
    // must all be backed by real sink capacity).
    const int sink_depth = params.sinkBufferDepth * rp.vcCount;
    for (NodeId node = 0; node < nn; ++node)
        nics_.push_back(std::make_unique<Nic>(node, sink_depth));

    wiring_.wirePristine();
    for (auto &nic : nics_)
        nic->setListener(this);

    // Fault injection: one shared injector, counters bound to this
    // network's stats so the fault schedule and its detection record
    // are part of the cross-kernel equivalence contract.
    if (params.faults.enabled) {
        faults_ = std::make_unique<FaultInjector>(params.faults);
        faults_->bindStats(&stats_.faults);
        for (auto &r : routers_)
            r->attachFaults(faults_.get());
        for (auto &nic : nics_)
            nic->attachFaults(faults_.get());
        faults_->planHardFaults(mesh_);
        // Config-time (cycle-0) kills apply before any traffic
        // exists: clean topology surgery, no losses, no degradation.
        if (faults_->hardFaultsPending())
            applyDueHardFaults(/*at_construction=*/true);
        // End-to-end transport: source-side retransmission windows at
        // the NICs plus destination-side duplicate suppression.
        if (params.faults.e2eTransport) {
            transport_ = std::make_unique<E2eTransport>(
                nn, params.faults.e2eTimeout,
                params.faults.e2eRetryLimit, params.faults.e2eAckDelay);
            for (auto &nic : nics_)
                nic->attachTransport(transport_.get());
        }
    }

    // Active sets start full (the first cycles retire whatever is
    // idle) and never reallocate, so bound wake pointers stay valid.
    // Only the gating kernel binds wakes: always-tick retires nothing.
    const bool gating =
        params_.schedulingMode == SchedulingMode::ActivityDriven;
    const auto arm = [gating](std::vector<std::uint64_t> &set, auto &parts) {
        set.resize((parts.size() + 63) / 64);
        for (std::size_t id = 0; id < parts.size(); ++id) {
            setMember(set, static_cast<NodeId>(id), true);
            if (gating)
                parts[id]->bindActivity(&set[id / 64], 1ULL << (id % 64));
        }
    };
    arm(routerActive_, routers_);
    arm(nicActive_, nics_);
    evalRouters_ = routerActive_;

    // Observability: the recorder and sampler are passive observers —
    // they read committed state and counters but never mutate router,
    // NIC, RNG or stats state, so enabling them cannot change a run.
    if (params.obs.trace.enabled) {
        tracer_ = std::make_unique<TraceRecorder>(params.obs.trace);
        for (auto &r : routers_)
            r->attachTracer(tracer_.get());
        for (auto &nic : nics_)
            nic->attachTracer(tracer_.get());
        if (faults_)
            faults_->attachTracer(tracer_.get());
        prevRouterActive_ = routerActive_;
        prevNicActive_ = nicActive_;
    }
    if (params.obs.metrics.enabled) {
        metrics_ =
            std::make_unique<MetricsSampler>(params.obs.metrics, nr);
        lastLinkFlits_.assign(static_cast<std::size_t>(nr), 0);
        lastCollisions_.assign(static_cast<std::size_t>(nr), 0);
    }
    if (params.obs.prov.enabled) {
        prov_ = std::make_unique<LatencyProvenance>(params.obs.prov);
        for (auto &r : routers_)
            r->attachProvenance(prov_.get());
        for (auto &nic : nics_)
            nic->attachProvenance(prov_.get());
    }
    // Simulator self-observation: the profiler reads only the host
    // clock, the heartbeat reads committed counters — neither can
    // perturb the run (observer-effect tested like the rest).
    if (params.obs.profile.enabled) {
        profiler_ =
            std::make_unique<PhaseProfiler>(params.obs.profile, nr);
    }
    if (params.obs.telemetry.enabled)
        telemetry_ = std::make_unique<RunTelemetry>(params.obs.telemetry);
    if (params.obs.digest.enabled) {
        digest_ = std::make_unique<DigestLedger>(params.obs.digest);
        digest_->writeHeader(fingerprint());
    }
}

void
Network::applyDueHardFaults(bool at_construction)
{
    const std::vector<FaultInjector::HardFault> due =
        faults_->takeDueHardFaults(now_);
    if (due.empty())
        return;
    const HardFaultLosses lost =
        wiring_.apply(due, *faults_, at_construction);
    stats_.faults.tableRebuilds += 1;
    if (tracer_) {
        tracer_->record(TraceEventKind::TableRebuild, kInvalidNode, -1,
                        routingTable().rebuilds(),
                        static_cast<std::uint32_t>(due.size()));
    }
    stats_.faults.flitsLostHard += lost.flitUids.size();
    if (prov_) {
        // Written-off flits will never be delivered: their open spans
        // are abandoned (they were never measured anyway).
        prov_->forgetFlits(std::vector<std::uint64_t>(
            lost.flitUids.begin(), lost.flitUids.end()));
    }
    if (transport_) {
        // With the E2E transport on, a purged wire packet is a
        // recoverable loss, not a write-off: the source window still
        // holds the logical packet and will retransmit on timeout.
        // Only the destination's partial-arrival record of this
        // attempt is scrubbed (the attempt can never complete).
        for (const auto &[packet, dest] : lost.packets)
            nics_[dest]->forgetArrived(packet);
    } else {
        stats_.faults.packetsLostHard += lost.packets.size();
        for (const auto &[packet, dest] : lost.packets) {
            nics_[dest]->forgetArrived(packet);
            ageInFlight_.erase(packet);
        }
    }
}

void
Network::checkPacketAges()
{
    const Cycle limit = faults_->params().packetAgeLimit;
    while (!ageQueue_.empty()) {
        const auto &[packet, created] = ageQueue_.front();
        if (!ageInFlight_.count(packet)) {
            ageQueue_.pop_front(); // delivered or written off
            continue;
        }
        if (now_ - created <= limit)
            break; // everyone behind is younger still
        stats_.faults.ageAlarms += 1;
        if (tracer_ && !ageDumpLatched_) {
            // Livelock alarm: latch the flight recorder exactly once.
            ageDumpLatched_ = true;
            tracer_->triggerFlightDump("age-limit", {});
        }
        ageQueue_.pop_front(); // alarm once per packet
    }
}

void
Network::addSource(std::unique_ptr<TrafficSource> source)
{
    NOX_ASSERT(source, "null traffic source");
    sources_.push_back(std::move(source));
    sourceDue_.push_back(now_); // a new source acts at once
    const std::size_t words = (sources_.size() + 63) / 64;
    if (words == sourceWords_) {
        scheduleSource(sources_.size() - 1, now_);
        return;
    }
    sourceWords_ = words;
    sourceWheel_.assign(kWheelSlots * words, 0);
    rearmSources();
}

void
Network::setSourcesEnabled(bool enabled)
{
    if (enabled == sourcesEnabled_)
        return;
    sourcesEnabled_ = enabled;
    if (!enabled) {
        pausedAt_ = now_;
        return;
    }
    const Cycle paused = now_ - pausedAt_;
    for (std::size_t id = 0; id < sources_.size(); ++id) {
        Cycle &due = sourceDue_[id];
        if (due != kNeverDue)
            due = std::max(sources_[id]->resume(due, paused), now_);
    }
    rearmSources();
}

void
Network::scheduleSource(std::size_t id, Cycle due)
{
    NOX_ASSERT(due >= now_, "traffic source ", id, " named past cycle ",
               due, " at cycle ", now_);
    sourceDue_[id] = due;
    if (due == kNeverDue)
        return;
    if (due - now_ < kWheelSlots) {
        sourceWheel_[(due % kWheelSlots) * sourceWords_ + id / 64] |=
            std::uint64_t{1} << (id % 64);
        return;
    }
    sourceFar_.emplace_back(due, id);
    std::push_heap(sourceFar_.begin(), sourceFar_.end(),
                   std::greater<>{});
}

void
Network::rearmSources()
{
    std::fill(sourceWheel_.begin(), sourceWheel_.end(), 0);
    sourceFar_.clear();
    for (std::size_t id = 0; id < sources_.size(); ++id)
        scheduleSource(id, sourceDue_[id]);
}

void
Network::tickDueSources()
{
    // A far date moves onto the wheel once it is less than one turn
    // ahead, which is before its slot comes round.
    while (!sourceFar_.empty() &&
           sourceFar_.front().first - now_ < kWheelSlots) {
        std::pop_heap(sourceFar_.begin(), sourceFar_.end(),
                      std::greater<>{});
        const auto [due, id] = sourceFar_.back();
        sourceFar_.pop_back();
        scheduleSource(id, due);
    }
    // A tick names a later date, never this slot again (a date a
    // whole turn ahead goes to the far heap).
    std::uint64_t *const slot =
        sourceWheel_.data() + (now_ % kWheelSlots) * sourceWords_;
    for (std::size_t w = 0; w < sourceWords_; ++w) {
        for (std::uint64_t bits = std::exchange(slot[w], 0); bits != 0;
             bits &= bits - 1) {
            const std::size_t id =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            scheduleSource(id, sources_[id]->tick(now_, *this));
        }
    }
}

void
Network::step()
{
    PhaseProfiler *const prof = profiler_.get();
    if (prof)
        prof->beginStep();
    // The one mode-dependent decision: does a quiescent component
    // retire from its active set at commit?
    const bool gating =
        params_.schedulingMode == SchedulingMode::ActivityDriven;

    // 0. Fault-injection clock (draws this cycle key off now_); hard
    // faults and sweeps touch committed state only.
    if (faults_) {
        ProfScope ps(prof, SimPhase::Scheduler);
        faults_->beginCycle(now_);
        if (faults_->hardFaultsPending())
            applyDueHardFaults(/*at_construction=*/false);
        if (faults_->params().packetAgeLimit > 0)
            checkPacketAges();
        if (transport_)
            transport_->sweep(now_, *this);
    }
    if (tracer_) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        tracer_->beginCycle(now_);
        traceWakes();
    }

    // 1. Traffic generation: the sources due this cycle, whatever the
    // kernel, so both modes see the same traffic. Injection re-arms
    // the NIC.
    if (sourcesEnabled_) {
        ProfScope ps(prof, SimPhase::TrafficInject);
        tickDueSources();
    }

    // 1b. Link-layer maintenance (retransmissions, credit watchdog)
    // precedes evaluation, so a retransmitted flit is staged like a
    // first transmission. quiescent() covers retries and owed credits.
    if (faults_) {
        ProfScope ps(prof, SimPhase::LinkRetry);
        forEachMember(routerActive_, [&](NodeId r) {
            routers_[r]->evaluateLink(now_);
        });
    }

    // 2. NIC injection into router local inputs.
    {
        ProfScope ps(prof, SimPhase::TrafficInject);
        forEachMember(nicActive_, [&](NodeId n) {
            nics_[n]->evaluateInject(now_);
        });
    }

    // 3. Router evaluation over a copy of the active set: evaluation
    // reads committed state only, so a router woken by a flit staged
    // in this phase starts evaluating next cycle.
    {
        ProfScope ps(prof, SimPhase::RouterEvaluate);
        std::copy(routerActive_.begin(), routerActive_.end(),
                  evalRouters_.begin());
        forEachMember(evalRouters_,
                      [&](NodeId r) { routers_[r]->evaluate(now_); });
    }
    if (prof)
        forEachMember(evalRouters_, [&](NodeId r) { prof->countEval(r); });

    // 4. NIC sinks drain their committed FIFOs.
    {
        ProfScope ps(prof, SimPhase::NicEject);
        forEachMember(nicActive_, [&](NodeId n) {
            nics_[n]->evaluateSink(now_);
        });
    }

    // 5. Commit every active component; when gating, retire the
    // quiescent ones. Only committed routers are clocked.
    {
        ProfScope ps(prof, SimPhase::Scheduler);
        forEachMember(routerActive_, [&](NodeId r) {
            Router &router = *routers_[r];
            router.energy().cycles += 1;
            router.commit();
            if (gating && router.quiescent()) {
                setMember(routerActive_, r, false);
                if (tracer_)
                    tracer_->record(TraceEventKind::SchedRetire, r, -1, 0);
            }
        });
        forEachMember(nicActive_, [&](NodeId n) {
            Nic &nic = *nics_[n];
            nic.commit();
            sampleSourceQueue(n);
            if (gating && nic.quiescent()) {
                setMember(nicActive_, n, false);
                if (tracer_) {
                    tracer_->record(TraceEventKind::SchedRetire, n, -1,
                                    0, 0, true);
                }
            }
        });
        ++now_;
    }
    if (metrics_ && metrics_->windowEnds(now_)) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        sampleMetricsWindow();
    }
    if (checkpointInterval_ != 0 && now_ % checkpointInterval_ == 0 &&
        checkpointHook_) {
        ProfScope ps(prof, SimPhase::Checkpoint);
        checkpointHook_(*this);
        if (telemetry_)
            telemetry_->noteCheckpoint(now_);
    }

    // Deliberate-divergence knob (test/debug only): fires after the
    // kernel committed the step ending at now_, before the digest
    // stride below — so the first differing stride carries exactly
    // this cycle (see NetworkParams::debugPerturbCycle).
    if (params_.debugPerturbCycle != 0 &&
        now_ == params_.debugPerturbCycle) {
        routers_[static_cast<std::size_t>(params_.debugPerturbRouter)]
            ->debugPerturb();
    }
    if (digest_ && digest_->due(now_)) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        digest_->record(computeDigestStride(digest_->scratch()));
    }
    if (telemetry_ && telemetry_->due(now_)) {
        ProfScope ps(prof, SimPhase::ObsFlush);
        telemetry_->beat(telemetrySample());
    }
    if (prof)
        prof->endStep();
}

void
Network::traceWakes()
{
    // A bit that went 0 -> 1 since the last scan is a wake (staging or
    // fresh traffic), recorded against the cycle it first evaluates.
    const auto edges = [this](const std::vector<std::uint64_t> &active,
                              std::vector<std::uint64_t> &prev, bool nic) {
        for (std::size_t w = 0; w < active.size(); ++w) {
            for (std::uint64_t woken = active[w] & ~prev[w]; woken != 0;
                 woken &= woken - 1) {
                const auto id =
                    static_cast<NodeId>(w * 64 + std::countr_zero(woken));
                tracer_->record(TraceEventKind::SchedWake, id, -1, 0, 0,
                                nic);
            }
            prev[w] = active[w];
        }
    };
    edges(routerActive_, prevRouterActive_, false);
    edges(nicActive_, prevNicActive_, true);
}

void
Network::sampleMetricsWindow()
{
    std::vector<RouterWindowSample> samples;
    samples.reserve(routers_.size());
    for (NodeId r = 0; r < numRouters(); ++r) {
        const Router &router = *routers_[r];
        RouterWindowSample s;
        s.bufferedFlits = router.bufferedFlits();
        const std::uint64_t link = router.energy().linkFlits;
        const std::uint64_t coll = router.xorCollisions();
        s.linkFlits =
            static_cast<std::uint32_t>(link - lastLinkFlits_[r]);
        s.xorCollisions =
            static_cast<std::uint32_t>(coll - lastCollisions_[r]);
        lastLinkFlits_[r] = link;
        lastCollisions_[r] = coll;
        s.retryPending = router.retryPending();
        s.active = isMember(routerActive_, r);
        samples.push_back(s);
    }
    metrics_->recordWindow(now_, std::move(samples), activeRouters(),
                           activeNics());
}

void
Network::finishObservability()
{
    if (metrics_) {
        if (metrics_->openWindowDirty(now_))
            sampleMetricsWindow();
        if (!metrics_->params().jsonlPath.empty())
            metrics_->writeJsonl(metrics_->params().jsonlPath);
    }
    if (tracer_ && !tracer_->params().chromePath.empty()) {
        tracer_->writeChromeTrace(tracer_->params().chromePath,
                                  params_.width,
                                  params_.concentration);
    }
    // End-of-run flight dump: a deterministic input for offline
    // timeline reconstruction (trace_tool analyze) even when no
    // failure trigger fired during the run.
    if (tracer_ && tracer_->params().flightOnExit &&
        !tracer_->flightDumped())
        tracer_->triggerFlightDump("end-of-run", {});
    if (prov_ && !prov_->params().jsonlPath.empty())
        prov_->writeJsonl(prov_->params().jsonlPath);
    if (profiler_) {
        // Derived work counters come from the routers' monotonic
        // energy-event counters — free on the hot path, exact here.
        for (NodeId r = 0; r < numRouters(); ++r) {
            const EnergyEvents &e = routers_[r]->energy();
            profiler_->recordRouterWork(
                r, e.linkFlits + e.localLinkFlits, e.arbDecisions);
        }
        if (!profiler_->params().jsonlPath.empty()) {
            ProfileMeta meta;
            meta.width = params_.width;
            meta.height = params_.height;
            meta.arch = archName(routers_[0]->arch());
            meta.sched = schedulingModeName(params_.schedulingMode);
            profiler_->writeJsonl(profiler_->params().jsonlPath,
                                  meta);
        }
    }
}

TelemetrySample
Network::telemetrySample() const
{
    TelemetrySample s;
    s.cycle = now_;
    s.activeRouters = activeRouters();
    s.activeNics = activeNics();
    s.packetsInFlight = packetsInFlight();
    s.packetsInjected = stats_.packetsInjected;
    s.packetsEjected = stats_.packetsEjected;
    s.faultsInjected = stats_.faults.faultsInjected;
    s.retransmissions = stats_.faults.retransmissions;
    s.e2eRetransmits = stats_.faults.e2eRetransmits;
    s.dupSuppressed = stats_.faults.dupSuppressed;
    s.healsApplied =
        stats_.faults.linkHeals + stats_.faults.routerHeals;
    s.deadEntities = static_cast<std::uint64_t>(
        faultMap().deadRouterCount() + faultMap().explicitDeadLinkCount());
    if (telemetry_)
        s.checkpointAge = telemetry_->checkpointAge(now_);
    if (digest_) {
        s.digestStrides =
            static_cast<std::int64_t>(digest_->strideCount());
        s.lastDigestCycle = digest_->lastDigestCycle();
    }
    return s;
}

int
Network::activeRouters() const
{
    return countMembers(routerActive_);
}

int
Network::activeNics() const
{
    return countMembers(nicActive_);
}

void
Network::run(Cycle cycles)
{
    for (Cycle i = 0; i < cycles; ++i)
        step();
}

bool
Network::drain(Cycle limit)
{
    // Draining with live sources would keep injecting fresh packets
    // and burn the whole cycle limit; suspend them for the duration
    // and restore the caller's setting on exit.
    const bool sources_were_enabled = sourcesEnabled_;
    setSourcesEnabled(false);
    const Cycle deadline = now_ + limit;
    while (!drainComplete() && now_ < deadline)
        step();
    setSourcesEnabled(sources_were_enabled);

    drainReport_ = DrainReport{};
    drainReport_.drained = drainComplete();
    drainReport_.stoppedAt = now_;
    drainReport_.stalledPackets = packetsInFlight();
    drainReport_.undeliverablePackets = transport_
        ? stats_.faults.deliveryFailures
        : stats_.faults.packetsLostHard;
    if (!drainReport_.drained) {
        for (NodeId r = 0; r < numRouters(); ++r) {
            if (!routers_[r]->quiescent())
                drainReport_.busyRouters.push_back(r);
        }
        for (NodeId n = 0; n < numNodes(); ++n) {
            if (!nics_[n]->quiescent())
                drainReport_.busyNics.push_back(n);
            for (const auto &[packet, count] :
                 nics_[n]->partialPackets())
                drainReport_.partialPackets.push_back(
                    {n, packet, count});
        }
        // Flight recorder: a drain timeout is exactly the situation
        // the ring exists for — dump the recent event history around
        // the stuck components before anyone tears the network down.
        if (tracer_) {
            tracer_->triggerFlightDump("drain-timeout",
                                       drainReport_.busyRouters);
        }
    }
    return drainReport_.drained;
}

void
Network::setMeasurementWindow(Cycle start, Cycle end)
{
    NOX_ASSERT(start < end, "empty measurement window");
    stats_.measureStart = start;
    stats_.measureEnd = end;
    if (prov_)
        prov_->setMeasurementWindow(start, end);
}

std::uint64_t
Network::packetsInFlight() const
{
    // Hard-fault casualties are accounted losses, not in-flight
    // packets: conservation is ejected + lost == injected. With the
    // E2E transport on, purge casualties stay logically in flight in
    // the source window; only exhausted-retry abandonments count as
    // losses (ejected + deliveryFailures == injected).
    const std::uint64_t accounted = transport_
        ? stats_.faults.deliveryFailures
        : stats_.faults.packetsLostHard;
    return stats_.packetsInjected - stats_.packetsEjected - accounted;
}

bool
Network::drainComplete() const
{
    if (packetsInFlight() != 0)
        return false;
    if (!transport_)
        return true;
    // Exactly-once requires the stale attempts to finish too: every
    // straggler flit must reach its destination door and be dropped
    // there, and every window entry must be acked or abandoned —
    // otherwise a resumed run could deliver a duplicate later.
    if (transport_->windowSize() != 0)
        return false;
    for (const auto &r : routers_) {
        if (!r->quiescent())
            return false;
    }
    for (const auto &nic : nics_) {
        if (!nic->quiescent())
            return false;
    }
    return true;
}

EnergyEvents
Network::totalEnergyEvents() const
{
    EnergyEvents total;
    for (const auto &r : routers_)
        total.merge(r->energy());
    for (const auto &nic : nics_)
        total.merge(nic->energy());
    return total;
}

const std::vector<FlitDesc> &
Network::buildFlits(PacketId packet, NodeId src, NodeId dest,
                    std::uint32_t num_flits, Cycle created,
                    TrafficClass cls, std::uint32_t flow_seq)
{
    // Member scratch: one packet's flits are built here every
    // injection, and the NIC copies them into its source queue — no
    // per-packet vector allocation on the steady-state path.
    std::vector<FlitDesc> &flits = scratchInjectFlits_;
    flits.clear();
    flits.reserve(num_flits);
    for (std::uint32_t s = 0; s < num_flits; ++s) {
        FlitDesc d;
        d.uid = flitUid(packet, s);
        d.packet = packet;
        d.seq = s;
        d.packetSize = num_flits;
        d.src = src;
        d.dest = dest;
        d.payload = expectedPayload(packet, s);
        d.createCycle = created;
        d.cls = cls;
        d.flowSeq = flow_seq;
        // Static VC assignment by class (request/reply isolation).
        if (params_.router.vcCount > 1 && cls == TrafficClass::Reply)
            d.vc = 1;
        flits.push_back(d);
    }
    return flits;
}

PacketId
Network::injectPacket(NodeId src, NodeId dst, int num_flits, Cycle now,
                      TrafficClass cls)
{
    NOX_ASSERT(src >= 0 && src < numNodes(), "bad source node ", src);
    NOX_ASSERT(dst >= 0 && dst < numNodes(), "bad dest node ", dst);
    NOX_ASSERT(src != dst, "self-addressed packet");
    NOX_ASSERT(num_flits >= 1, "packet needs at least one flit");

    // Unreachable-destination detection at the injection boundary:
    // the packet is refused and counted, never silently stranded.
    if (!routingTable().reachable(src, dst)) {
        stats_.faults.unreachableRejected += 1;
        if (tracer_) {
            tracer_->record(TraceEventKind::UnreachableReject, src, -1,
                            static_cast<std::uint64_t>(dst), 0, true);
        }
        return kInvalidPacket;
    }

    const PacketId id = nextPacket_++;
    std::uint32_t flow_seq = 0;
    if (faults_) {
        flow_seq = flowNextSeq_(src, dst)++;
        if (faults_->params().packetAgeLimit > 0) {
            ageQueue_.emplace_back(id, now);
            ageInFlight_.insert(id);
        }
    }
    const std::vector<FlitDesc> &flits =
        buildFlits(id, src, dst, static_cast<std::uint32_t>(num_flits),
                   now, cls, flow_seq);
    if (prov_)
        prov_->onPacketCreate(flits, now);
    if (transport_)
        transport_->onInject(flits.front(), now);
    nics_[src]->enqueuePacket(flits);

    if (tracer_) {
        tracer_->record(TraceEventKind::PacketCreate, src, -1, id,
                        (static_cast<std::uint32_t>(dst) << 16) |
                            static_cast<std::uint32_t>(num_flits),
                        true);
    }
    stats_.packetsInjected += 1;
    stats_.flitsInjected += static_cast<std::uint64_t>(num_flits);
    if (now >= stats_.measureStart && now < stats_.measureEnd) {
        stats_.packetsMeasured += 1;
        stats_.flitsCreatedInWindow +=
            static_cast<std::uint64_t>(num_flits);
    }
    stats_.maxSourceQueueFlits =
        std::max(stats_.maxSourceQueueFlits,
                 nics_[src]->sourceQueueFlits());
    return id;
}

std::size_t
Network::sourceQueueFlits(NodeId node) const
{
    return nics_[node]->sourceQueueFlits();
}

void
Network::installCheckpoint(Cycle interval,
                           std::function<void(Network &)> hook)
{
    NOX_ASSERT(interval > 0, "checkpoint interval must be positive");
    checkpointInterval_ = interval;
    checkpointHook_ = std::move(hook);
}

std::string
Network::fingerprint() const
{
    // Doubles are rendered as exact bit patterns: two fingerprints
    // must compare equal iff the constructions are identical, not
    // merely close.
    const auto bits = [](double v) {
        std::uint64_t b;
        std::memcpy(&b, &v, sizeof b);
        return b;
    };
    std::ostringstream os;
    os << "arch=" << archName(routers_[0]->arch()) << " mesh="
       << params_.width << "x" << params_.height << "x"
       << params_.concentration
       << " buf=" << params_.router.bufferDepth
       << " vcs=" << params_.router.vcCount
       << " sink=" << params_.sinkBufferDepth
       << " arb=" << static_cast<int>(params_.router.arbiterKind)
       << " routing=0" // X-then-Y, the one routing function
       << " sched=" << schedulingModeName(params_.schedulingMode);
    const FaultParams &f = params_.faults;
    os << " faults=" << (f.enabled ? 1 : 0);
    if (f.enabled) {
        os << std::hex << " rates=" << bits(f.bitflipRate) << ","
           << bits(f.dropRate) << "," << bits(f.creditLossRate)
           << std::dec << " seed=" << f.seed
           << " protect=" << (f.protect ? 1 : 0)
           << " retry=" << f.retryTimeout << "," << kNackDelay
           << " watchdog=" << f.watchdogPeriod
           << " hard=" << f.hardLinkFaults << ","
           << f.hardRouterFaults << "@" << f.hardFaultCycle
           << " age=" << f.packetAgeLimit;
        os << " e2e=" << (f.e2eTransport ? 1 : 0);
        if (f.e2eTransport) {
            os << "/" << f.e2eTimeout << "," << f.e2eRetryLimit << ","
               << f.e2eAckDelay;
        }
        os << " churn=" << f.churnWaves;
        if (f.churnWaves > 0) {
            os << "@" << f.churnStart << "/" << f.churnPeriod << "/"
               << f.churnHealAfter << ":" << f.churnLinks << ","
               << f.churnRouters;
        }
    }
    os << " trace=" << (params_.obs.trace.enabled ? 1 : 0);
    if (params_.obs.trace.enabled)
        os << "/" << params_.obs.trace.capacity;
    os << " metrics=" << (params_.obs.metrics.enabled ? 1 : 0);
    if (params_.obs.metrics.enabled)
        os << "/" << params_.obs.metrics.interval;
    os << " prov=" << (params_.obs.prov.enabled ? 1 : 0);
    // The digest ledger is deliberately absent here (per-run output,
    // not construction geometry), but a deliberate perturbation is a
    // real behavioral difference: two networks that perturb
    // differently are *not* snapshot-compatible trajectories.
    if (params_.debugPerturbCycle != 0) {
        os << " perturb=" << params_.debugPerturbCycle << "@"
           << params_.debugPerturbRouter;
    }
    return os.str();
}

template <typename Ar, typename Self>
void
Network::layout(Ar &ar, Self &self, snap::Scope scope)
{
    snap::tag(ar, snap::fourcc("NETW"));
    snap::fields(ar, self.now_, self.nextPacket_, self.sourcesEnabled_,
                 self.stats_);

    snap::io(ar, self.wiring_); // dead set, replayed on a load
    ioFlowTable(ar, self.flowNextSeq_, 4);
    ioFlowTable(ar, self.flowMaxDone_, 4);
    snap::ioSeq(ar, self.ageQueue_, 16);
    snap::ioSortedSet(ar, self.ageInFlight_);
    if (scope == snap::Scope::Digest)
        return; // the rest is kernel/observer bookkeeping + components

    snap::io(ar, self.ageDumpLatched_);
    // Active sets: one boolean per component, in id order. Always-tick
    // retires nothing, and nothing would re-arm a cleared member
    // (wakes are bound only when gating): a load rejects such a set.
    const bool gating =
        self.params_.schedulingMode == SchedulingMode::ActivityDriven;
    const auto activeSet = [&ar](auto &set, int members, bool full) {
        for (NodeId id = 0; id < members && !set.empty(); ++id) {
            bool member = isMember(set, id);
            snap::io(ar, member);
            snap::check(ar, member || !full,
                        "retired component under the always-tick kernel");
            if constexpr (Ar::kReading)
                setMember(set, id, member);
        }
    };
    activeSet(self.routerActive_, self.numRouters(), !gating);
    activeSet(self.nicActive_, self.numNodes(), !gating);
    snap::ioExpect(ar, !self.prevRouterActive_.empty(),
                   "trace-activity state presence mismatch (wrong config)");
    activeSet(self.prevRouterActive_, self.numRouters(), false);
    activeSet(self.prevNicActive_, self.numNodes(), false);
    snap::ioExpect(ar, !self.lastLinkFlits_.empty(),
                   "metrics window-counter presence mismatch (wrong "
                   "config)");
    for (auto &v : self.lastLinkFlits_)
        snap::io(ar, v);
    for (auto &v : self.lastCollisions_)
        snap::io(ar, v);

    for (auto &r : self.routers_)
        snap::io(ar, *r);
    for (auto &nic : self.nics_)
        snap::io(ar, *nic);
    snap::ioExpect(ar, std::uint64_t{self.sources_.size()},
                   "traffic source count mismatch (wrong config)");
    for (auto &src : self.sources_) {
        if constexpr (Ar::kReading)
            src->restore(ar);
        else
            src->serialize(ar, self.sourceClock());
    }
    const auto optional = [&ar](auto &component, const char *what) {
        snap::ioExpect(ar, component != nullptr, what);
        if (component)
            snap::io(ar, *component);
    };
    optional(self.faults_, "fault-injection presence mismatch (wrong config)");
    optional(self.tracer_, "trace recorder presence mismatch (wrong config)");
    optional(self.metrics_,
             "metrics sampler presence mismatch (wrong config)");
    optional(self.prov_, "provenance presence mismatch (wrong config)");
    optional(self.transport_,
             "E2E-transport presence mismatch (wrong config)");
    if constexpr (Ar::kReading) {
        // Restored sources act at once; a paused one from here on.
        self.pausedAt_ = self.now_;
        std::fill(self.sourceDue_.begin(), self.sourceDue_.end(),
                  self.now_);
        self.rearmSources();
    }
}

void
Network::serialize(snap::Writer &w, snap::Scope scope) const
{
    layout(w, *this, scope);
}

DigestStride
Network::computeDigestStride(snap::Writer &scratch) const
{
    const auto hash = [&scratch]() {
        const DigestHash h = digestBytes(scratch.data(),
                                         scratch.size());
        scratch.clear();
        return h;
    };

    DigestStride s;
    s.cycle = now_;
    scratch.clear();

    serialize(scratch, snap::Scope::Digest);
    s.global = hash();

    for (const auto &src : sources_)
        src->serialize(scratch, sourceClock());
    s.sources = hash();

    if (faults_) {
        faults_->serialize(scratch);
        s.faults = hash();
    }
    if (transport_) {
        transport_->serialize(scratch);
        s.transport = hash();
    }

    s.routers.reserve(routers_.size());
    for (const auto &r : routers_) {
        r->serialize(scratch, snap::Scope::Digest);
        s.routers.push_back(hash());
    }
    s.nics.reserve(nics_.size());
    for (const auto &nic : nics_) {
        nic->serialize(scratch, snap::Scope::Digest);
        s.nics.push_back(hash());
    }
    return s;
}

void
Network::restore(snap::Reader &r)
{
    layout(r, *this, snap::Scope::Snapshot);
}

void
Network::onFlitDelivered(NodeId, const FlitDesc &, Cycle now)
{
    stats_.flitsEjected += 1;
    const bool measured =
        now >= stats_.measureStart && now < stats_.measureEnd;
    if (measured)
        stats_.flitsEjectedInWindow += 1;
    if (metrics_)
        metrics_->onFlitEjected(measured);
}

bool
Network::onE2eResend(PacketId base, const TransportEntry &e)
{
    // An impossible resend leaves the entry armed: the next timeout
    // tries again, so the packet rides out any outage shorter than
    // its remaining retry budget.
    if (nics_[e.src]->dead() || !routingTable().reachable(e.src, e.dest))
        return false;

    const std::vector<FlitDesc> &flits =
        buildFlits(attemptPacket(base, e.attempt), e.src, e.dest,
                   e.numFlits, e.origCreate, e.cls, e.flowSeq);
    if (prov_)
        prov_->onRetransmit(flits, now_);
    nics_[e.src]->enqueuePacket(flits);
    stats_.faults.e2eRetransmits += 1;
    if (tracer_) {
        tracer_->record(TraceEventKind::E2eRetransmit, e.src, -1, base,
                        e.attempt, true);
    }
    return true;
}

void
Network::onE2eAck(PacketId base, const TransportEntry &e)
{
    if (tracer_) {
        tracer_->record(TraceEventKind::E2eAck, e.src, -1, base,
                        e.retries, true);
    }
}

void
Network::onE2eFail(PacketId base, const TransportEntry &e)
{
    stats_.faults.deliveryFailures += 1;
    // Every attempt's partial-arrival record at the destination is
    // stale; the flow filter (marked by the transport) suppresses any
    // straggler flits of the abandoned packet at the door.
    for (std::uint32_t a = 0; a <= e.attempt; ++a)
        nics_[e.dest]->forgetArrived(attemptPacket(base, a));
    ageInFlight_.erase(base);
}

void
Network::onPacketCompleted(NodeId node, const FlitDesc &last_flit,
                           Cycle head_inject, Cycle now)
{
    PacketId packet = last_flit.packet;
    if (transport_) {
        std::uint32_t attempts = 0;
        const bool first =
            transport_->onPacketDelivered(packet, now, attempts);
        NOX_ASSERT(first, "duplicate completion of packet ",
                   basePacket(packet), " at node ", node);
        packet = basePacket(last_flit.packet);
        // Any other attempt's flits still in flight are stale now:
        // scrub their partial-arrival records (the door filter drops
        // the flits themselves when they straggle in).
        for (std::uint32_t a = 0; a <= attempts; ++a) {
            const PacketId other = attemptPacket(packet, a);
            if (other != last_flit.packet)
                nics_[node]->forgetArrived(other);
        }
    }
    if (tracer_) {
        tracer_->record(
            TraceEventKind::PacketDone, node, -1, packet,
            static_cast<std::uint32_t>(now - last_flit.createCycle),
            true);
    }
    stats_.packetsEjected += 1;
    if (faults_) {
        // Per-flow sequence check: adaptive rerouting after a mid-run
        // kill can legitimately reorder a flow; make it visible.
        const std::uint32_t *done =
            flowMaxDone_.find(last_flit.src, last_flit.dest);
        if (done && last_flit.flowSeq < *done)
            stats_.faults.flowReorders += 1;
        else
            flowMaxDone_(last_flit.src, last_flit.dest) =
                last_flit.flowSeq;
        ageInFlight_.erase(packet);
    }
    const Cycle created = last_flit.createCycle;
    if (created >= stats_.measureStart && created < stats_.measureEnd) {
        const double lat = static_cast<double>(now - created) + 1.0;
        stats_.latency.add(lat);
        stats_.latencyHist.add(lat);
        stats_.netLatency.add(
            static_cast<double>(now - head_inject) + 1.0);
        stats_.latencyByClass[static_cast<int>(last_flit.cls)].add(lat);
        stats_.packetsMeasuredDone += 1;
    }
}

} // namespace nox
