#include "noc/fault_injector.hpp"

#include <algorithm>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "noc/topology.hpp"
#include "snapshot/io.hpp"

namespace nox {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::BitFlip:
        return "bitflip";
    case FaultKind::Drop:
        return "drop";
    case FaultKind::CreditLoss:
        return "creditloss";
    case FaultKind::LinkDead:
        return "linkdead";
    case FaultKind::RouterDead:
        return "routerdead";
    case FaultKind::LinkHeal:
        return "linkheal";
    case FaultKind::RouterHeal:
        return "routerheal";
    }
    return "?";
}

FaultParams
faultParamsFromConfig(const Config &config)
{
    FaultParams p;
    p.bitflipRate = config.getDouble("fault_bitflip_rate", 0.0, 0.0, 1.0);
    p.dropRate = config.getDouble("fault_drop_rate", 0.0, 0.0, 1.0);
    p.creditLossRate =
        config.getDouble("fault_credit_loss_rate", 0.0, 0.0, 1.0);
    p.seed = config.getUint("fault_seed", p.seed);
    p.protect = config.getBool("fault_recovery", true);
    p.retryTimeout = config.getUint("fault_retry_timeout", p.retryTimeout);
    p.watchdogPeriod =
        config.getUint("fault_watchdog_period", p.watchdogPeriod);
    p.hardLinkFaults = config.getInt("hard_link_faults", 0, 0);
    p.hardRouterFaults = config.getInt("hard_router_faults", 0, 0);
    p.hardFaultCycle = config.getUint("hard_fault_cycle", 0);
    p.packetAgeLimit = config.getUint("fault_age_limit", 0);
    p.e2eTransport = config.getBool("e2e_transport", false);
    p.e2eTimeout = config.getUint("e2e_timeout", p.e2eTimeout, 1);
    p.e2eRetryLimit =
        config.getInt("e2e_retry_limit", p.e2eRetryLimit, 0, 255);
    p.e2eAckDelay = config.getUint("e2e_ack_delay", p.e2eAckDelay);
    p.churnWaves = config.getInt("churn_waves", 0, 0, kMaxChurnWaves);
    p.churnStart = config.getUint("churn_start", p.churnStart);
    p.churnPeriod = config.getUint("churn_period", p.churnPeriod);
    p.churnHealAfter =
        config.getUint("churn_heal_after", p.churnHealAfter);
    p.churnLinks = config.getInt("churn_links", p.churnLinks, 0);
    p.churnRouters = config.getInt("churn_routers", p.churnRouters, 0);
    p.enabled = p.anyRate() || p.anyHard() || p.e2eTransport ||
                config.has("fault_seed") ||
                config.has("fault_recovery") ||
                config.has("fault_age_limit");
    return p;
}

FaultInjector::FaultInjector(const FaultParams &params)
    : params_(params), seedMix_(mix64(params.seed ^ 0x6E6F58F4ULL))
{
}

void
FaultInjector::scheduleOneShot(FaultKind kind, Cycle cycle,
                               NodeId router, int port,
                               std::uint64_t flip_mask)
{
    if (faultKindHard(kind)) {
        const bool link = kind == FaultKind::LinkDead ||
                          kind == FaultKind::LinkHeal;
        hardFaults_.push_back({kind, cycle, router, link ? port : -1});
        return;
    }
    oneShots_.push_back({kind, cycle, router, port, flip_mask, false});
}

std::vector<FaultInjector::Link>
FaultInjector::planKills(const Mesh &mesh, int wave,
                         std::vector<std::uint8_t> &dead,
                         const std::vector<Link> &exclude)
{
    const bool churn = wave >= 0;
    const Cycle killAt =
        churn ? params_.churnStart +
                    static_cast<Cycle>(wave) * params_.churnPeriod
              : params_.hardFaultCycle;
    const Cycle healAt = killAt + params_.churnHealAfter;
    const auto queue = [&](FaultKind kill, FaultKind heal, NodeId r,
                           int port) {
        hardFaults_.push_back({kill, killAt, r, port});
        if (churn)
            hardFaults_.push_back({heal, healAt, r, port});
    };
    const std::uint64_t waveSalt =
        churn ? static_cast<std::uint64_t>(wave) << 40 : 0;
    const auto nr = static_cast<NodeId>(dead.size());

    // Routers first: the link pool below excludes their stubs.
    const int routers =
        churn ? params_.churnRouters : params_.hardRouterFaults;
    const auto live = std::count(dead.begin(), dead.end(), 0);
    if (routers >= live) {
        fatal(churn ? "churn_routers=" : "hard_router_faults=", routers,
              " is out of range for the ", mesh.width(), "x",
              mesh.height(), " mesh (valid: 0..", live - 1,
              ", leaving a live router)");
    }
    const std::uint64_t routerSalt =
        (churn ? 0xC4A0ULL : 0xD0A1ULL) ^ waveSalt;
    for (int i = 0; i < routers; ++i) {
        for (std::uint64_t attempt = 0;; ++attempt) {
            const auto r = static_cast<NodeId>(
                mix64(seedMix_ ^
                      mix64(routerSalt ^
                            (static_cast<std::uint64_t>(i) << 32) ^
                            attempt)) %
                static_cast<std::uint64_t>(nr));
            if (dead[r])
                continue;
            dead[r] = 1;
            queue(FaultKind::RouterDead, FaultKind::RouterHeal, r, -1);
            break;
        }
    }

    // Canonical internal links (East/South from each router) whose
    // endpoints both survive the router kills above.
    std::vector<Link> pool;
    for (NodeId r = 0; r < nr; ++r) {
        if (dead[r])
            continue;
        for (int port : {static_cast<int>(kPortEast),
                         static_cast<int>(kPortSouth)}) {
            const NodeId n = mesh.neighbor(r, port);
            if (n != kInvalidNode && !dead[n] &&
                std::find(exclude.begin(), exclude.end(),
                          Link{r, port}) == exclude.end())
                pool.emplace_back(r, port);
        }
    }
    const int links = churn ? params_.churnLinks : params_.hardLinkFaults;
    if (links > static_cast<int>(pool.size())) {
        fatal(churn ? "churn_links=" : "hard_link_faults=", links,
              " is out of range for the ", mesh.width(), "x",
              mesh.height(), " mesh (valid: 0..", pool.size(),
              ", the internal links left by the other kills)");
    }
    const std::uint64_t linkSalt =
        (churn ? 0x71AEULL : 0x11F0ULL) ^ waveSalt;
    std::vector<Link> drawn;
    for (int i = 0; i < links; ++i) {
        const auto idx = static_cast<std::size_t>(
            mix64(seedMix_ ^
                  mix64(linkSalt ^ (static_cast<std::uint64_t>(i) << 32))) %
            pool.size());
        const auto [r, port] = drawn.emplace_back(pool[idx]);
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
        queue(FaultKind::LinkDead, FaultKind::LinkHeal, r, port);
    }
    return drawn;
}

void
FaultInjector::planHardFaults(const Mesh &mesh)
{
    routers_ = mesh.numRouters();
    std::vector<std::uint8_t> dead(static_cast<std::size_t>(routers_), 0);
    const std::vector<Link> permanent = planKills(mesh, -1, dead, {});

    // Churn waves: paired kill/heal events. Victims are hash-drawn
    // per wave, disjoint from the permanent kills above (the heal of
    // a churn victim must never resurrect a permanently killed
    // entity) and distinct within the wave. Waves are independent
    // draws; with churnHealAfter < churnPeriod every wave starts from
    // a fully healed mesh, and overlapping schedules degrade safely
    // into no-op kills/heals at application time.
    for (int w = 0; w < params_.churnWaves; ++w) {
        std::vector<std::uint8_t> waveDead = dead;
        planKills(mesh, w, waveDead, permanent);
    }
}

std::vector<FaultInjector::HardFault>
FaultInjector::takeDueHardFaults(Cycle now)
{
    std::vector<HardFault> due;
    for (const HardFault &h : hardFaults_) {
        if (h.cycle <= now)
            due.push_back(h);
    }
    if (due.empty())
        return due;
    hardFaults_.erase(
        std::remove_if(hardFaults_.begin(), hardFaults_.end(),
                       [now](const HardFault &h) {
                           return h.cycle <= now;
                       }),
        hardFaults_.end());
    for (const HardFault &h : due) {
        // Kills are recorded up front (the planner only schedules
        // valid victims); heals are recorded via recordHeal() once
        // the Network actually applies them.
        if (h.kind == FaultKind::LinkDead ||
            h.kind == FaultKind::RouterDead)
            record(h.kind, h.router, h.port, 0);
    }
    return due;
}

void
FaultInjector::recordHeal(FaultKind kind, NodeId router, int port)
{
    NOX_ASSERT(kind == FaultKind::LinkHeal ||
                   kind == FaultKind::RouterHeal,
               "recordHeal with a non-heal kind");
    record(kind, router, port, 0);
}

std::size_t
FaultInjector::pendingOneShots() const
{
    std::size_t n = 0;
    for (const auto &o : oneShots_)
        if (!o.fired)
            ++n;
    return n;
}

double
FaultInjector::eventUniform(FaultKind kind, NodeId router, int port,
                            std::uint64_t salt) const
{
    // Pure function of (seed, kind, cycle, endpoint): the draw does
    // not depend on evaluation order, so every scheduling kernel sees
    // the same fault schedule.
    std::uint64_t key = seedMix_;
    key ^= mix64((static_cast<std::uint64_t>(kind) << 56) ^
                 (static_cast<std::uint64_t>(now_) << 24) ^
                 (static_cast<std::uint64_t>(router) << 8) ^
                 static_cast<std::uint64_t>(port & 0xFF) ^
                 (salt << 16));
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(mix64(key) >> 11) * 0x1.0p-53;
}

bool
FaultInjector::takeOneShot(FaultKind kind, NodeId router, int port,
                           std::uint64_t *flip_mask)
{
    for (auto &o : oneShots_) {
        if (o.fired || o.kind != kind || o.cycle > now_ ||
            o.router != router || o.port != port)
            continue;
        o.fired = true;
        if (flip_mask)
            *flip_mask = o.flipMask ? o.flipMask : 1ULL;
        return true;
    }
    return false;
}

void
FaultInjector::record(FaultKind kind, NodeId router, int port,
                      std::uint64_t flip_mask)
{
    // Heals undo faults rather than inject them: they keep their own
    // counters and trace kind and stay out of faultsInjected.
    bool hard = false;
    bool heal = false;
    switch (kind) {
    case FaultKind::BitFlip:
        stats_->bitflipsInjected += 1;
        break;
    case FaultKind::Drop:
        stats_->dropsInjected += 1;
        break;
    case FaultKind::CreditLoss:
        stats_->creditsLostInjected += 1;
        break;
    case FaultKind::LinkDead:
        stats_->hardLinkFaults += 1;
        hard = true;
        break;
    case FaultKind::RouterDead:
        stats_->hardRouterFaults += 1;
        hard = true;
        break;
    case FaultKind::LinkHeal:
        stats_->linkHeals += 1;
        heal = true;
        break;
    case FaultKind::RouterHeal:
        stats_->routerHeals += 1;
        heal = true;
        break;
    }
    if (!heal)
        stats_->faultsInjected += 1;
    if (log_.size() < kLogCap)
        log_.push_back({now_, kind, router, port, flip_mask});
    if (tracer_) {
        tracer_->record(heal   ? TraceEventKind::HealApply
                        : hard ? TraceEventKind::HardFault
                               : TraceEventKind::FaultInject,
                        router, port, flip_mask,
                        static_cast<std::uint32_t>(kind));
    }
}

FlitFaults
FaultInjector::drawFlitFaults(NodeId router, int in_port)
{
    FlitFaults f;

    // Drop beats bit flip: a vanished flit has no bits to corrupt.
    if (takeOneShot(FaultKind::Drop, router, in_port, nullptr) ||
        (params_.dropRate > 0.0 &&
         eventUniform(FaultKind::Drop, router, in_port, 0) <
             params_.dropRate)) {
        f.dropped = true;
        record(FaultKind::Drop, router, in_port, 0);
        return f;
    }

    std::uint64_t mask = 0;
    if (takeOneShot(FaultKind::BitFlip, router, in_port, &mask)) {
        f.flipMask = mask;
    } else if (params_.bitflipRate > 0.0 &&
               eventUniform(FaultKind::BitFlip, router, in_port, 0) <
                   params_.bitflipRate) {
        // Exactly one payload bit flips per event: a single-bit upset
        // is always caught by the link CRC, and the detection
        // accounting stays exact (one event = one fault).
        const int bit = static_cast<int>(
            mix64(seedMix_ ^
                  mix64((static_cast<std::uint64_t>(now_) << 20) ^
                        (static_cast<std::uint64_t>(router) << 6) ^
                        static_cast<std::uint64_t>(in_port) ^
                        0xB17FULL)) &
            63);
        f.flipMask = 1ULL << bit;
    }
    if (f.flipMask != 0)
        record(FaultKind::BitFlip, router, in_port, f.flipMask);
    return f;
}

bool
FaultInjector::drawCreditLoss(NodeId router, int out_port,
                              std::uint64_t salt)
{
    if (takeOneShot(FaultKind::CreditLoss, router, out_port,
                    nullptr) ||
        (params_.creditLossRate > 0.0 &&
         eventUniform(FaultKind::CreditLoss, router, out_port, salt) <
             params_.creditLossRate)) {
        record(FaultKind::CreditLoss, router, out_port, 0);
        return true;
    }
    return false;
}

template <typename Ar, typename Self>
void
FaultInjector::layout(Ar &ar, Self &self)
{
    snap::tag(ar, snap::fourcc("FINJ"));
    snap::io(ar, self.now_);
    snap::ioSeq(ar, self.oneShots_, 26, [](auto &a, auto &o) {
        snap::ioEnum(a, o.kind, FaultKind::RouterHeal);
        snap::check(a, !faultKindHard(o.kind),
                    "hard fault kind in the one-shot queue");
        snap::fields(a, o.cycle, o.router, o.port, o.flipMask, o.fired);
    });
    const NodeId lastRouter = self.routers_ - 1;
    snap::ioSeq(ar, self.hardFaults_, 17, [lastRouter](auto &a, auto &h) {
        snap::ioEnum(a, h.kind, FaultKind::RouterHeal);
        snap::check(a, faultKindHard(h.kind),
                    "soft fault kind in the hard-fault queue");
        snap::io(a, h.cycle);
        snap::ioBounded(a, h.router, 0, lastRouter,
                        "hard fault names a router out of range");
        snap::io(a, h.port);
    });
    snap::ioSeq(ar, self.log_, 25, [](auto &a, auto &e) {
        snap::io(a, e.cycle);
        snap::ioEnum(a, e.kind, FaultKind::RouterHeal);
        snap::fields(a, e.router, e.port, e.flipMask);
    });
    snap::check(ar, self.log_.size() <= kLogCap, "fault log exceeds its cap");
}

void
FaultInjector::serialize(snap::Writer &w) const
{
    layout(w, *this);
}

void
FaultInjector::restore(snap::Reader &r)
{
    layout(r, *this);
}

} // namespace nox
