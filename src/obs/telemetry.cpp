#include "obs/telemetry.hpp"

#include <iostream>
#include <sstream>

#include "common/log.hpp"
#include "obs/jsonl.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace nox {

namespace {

/** "87.3k" / "1.2M" — compact rates for the one-line rendering. */
std::string
compactRate(double v)
{
    std::ostringstream os;
    os.precision(1);
    os << std::fixed;
    if (v >= 1e6)
        os << v / 1e6 << "M";
    else if (v >= 1e3)
        os << v / 1e3 << "k";
    else
        os << v;
    return os.str();
}

/** One heartbeat line. */
void
writeJson(std::ostream &os, const TelemetryRecord &rec, Cycle target_cycles)
{
    const TelemetrySample &s = rec.sample;
    jsonl::Writer w(os);
    w.record([&] {
        w.tag("type", "telemetry");
        w.field("cycle", s.cycle);
        w.field("target_cycles", target_cycles);
        w.field("wall_s", rec.wallSeconds);
        w.field("cps_inst", rec.instCyclesPerSec);
        w.field("cps_cum", rec.cumCyclesPerSec);
        w.field("eta_s", rec.etaSeconds);
        w.field("active_routers", s.activeRouters);
        w.field("active_nics", s.activeNics);
        w.field("inflight", s.packetsInFlight);
        w.field("injected", s.packetsInjected);
        w.field("ejected", s.packetsEjected);
        w.field("faults_injected", s.faultsInjected);
        w.field("retransmissions", s.retransmissions);
        w.field("e2e_retransmits", s.e2eRetransmits);
        w.field("dup_suppressed", s.dupSuppressed);
        w.field("heals_applied", s.healsApplied);
        w.field("dead_entities", s.deadEntities);
        w.field("peak_rss_kb", rec.peakRssKb);
        w.field("ckpt_age", s.checkpointAge);
        w.field("digest_strides", s.digestStrides);
        w.field("last_digest_cycle", s.lastDigestCycle);
    });
}

} // namespace

RunTelemetry::RunTelemetry(const TelemetryParams &params)
    : params_(params), start_(std::chrono::steady_clock::now())
{
    NOX_ASSERT(params_.interval > 0,
               "telemetry interval must be positive");
    if (!params_.jsonlPath.empty()) {
        out_.open(params_.jsonlPath);
        if (!out_)
            warn("cannot write telemetry JSONL: ", params_.jsonlPath);
    }
}

std::int64_t
RunTelemetry::peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::int64_t>(ru.ru_maxrss / 1024); // bytes
#else
    return static_cast<std::int64_t>(ru.ru_maxrss); // KiB
#endif
#else
    return 0;
#endif
}

void
RunTelemetry::beat(const TelemetrySample &sample)
{
    TelemetryRecord rec;
    rec.sample = sample;
    rec.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    const double dt = rec.wallSeconds - lastBeatWall_;
    const double dc =
        static_cast<double>(sample.cycle - lastBeatCycle_);
    rec.instCyclesPerSec = dt > 0.0 ? dc / dt : 0.0;
    rec.cumCyclesPerSec =
        rec.wallSeconds > 0.0
            ? static_cast<double>(sample.cycle) / rec.wallSeconds
            : 0.0;
    if (targetCycles_ > sample.cycle && rec.cumCyclesPerSec > 0.0) {
        rec.etaSeconds =
            static_cast<double>(targetCycles_ - sample.cycle) /
            rec.cumCyclesPerSec;
    }
    rec.peakRssKb = peakRssKb();

    if (out_.is_open()) {
        writeJson(out_, rec, targetCycles_);
        out_.flush();
    }
    if (params_.progress)
        std::cerr << "[telemetry] " << formatLine(rec, targetCycles_)
                  << '\n';

    lastBeatCycle_ = sample.cycle;
    lastBeatWall_ = rec.wallSeconds;
    last_ = rec;
    ++beats_;
}

std::string
RunTelemetry::formatLine(const TelemetryRecord &rec,
                         Cycle target_cycles)
{
    const TelemetrySample &s = rec.sample;
    std::ostringstream os;
    os << "cycle " << s.cycle;
    if (target_cycles > 0) {
        os << "/" << target_cycles;
        os.precision(1);
        os << std::fixed << " ("
           << 100.0 * static_cast<double>(s.cycle) /
                  static_cast<double>(target_cycles)
           << "%)";
        os.unsetf(std::ios::fixed);
    }
    os << " | " << compactRate(rec.instCyclesPerSec) << " c/s (cum "
       << compactRate(rec.cumCyclesPerSec) << ")";
    if (rec.etaSeconds >= 0.0) {
        os.precision(1);
        os << std::fixed << " | eta " << rec.etaSeconds << "s";
        os.unsetf(std::ios::fixed);
    }
    os << " | active " << s.activeRouters << "r+" << s.activeNics
       << "n | inflight " << s.packetsInFlight;
    if (s.faultsInjected > 0 || s.retransmissions > 0) {
        os << " | faults " << s.faultsInjected << "/retx "
           << s.retransmissions;
    }
    if (s.e2eRetransmits > 0 || s.dupSuppressed > 0) {
        os << " | e2e retx " << s.e2eRetransmits << "/dup "
           << s.dupSuppressed;
    }
    if (s.healsApplied > 0 || s.deadEntities > 0) {
        os << " | heals " << s.healsApplied << "/dead "
           << s.deadEntities;
    }
    if (rec.peakRssKb > 0) {
        os.precision(1);
        os << std::fixed << " | rss "
           << static_cast<double>(rec.peakRssKb) / 1024.0 << "MB";
        os.unsetf(std::ios::fixed);
    }
    if (s.checkpointAge >= 0)
        os << " | ckpt age " << s.checkpointAge;
    if (s.digestStrides >= 0) {
        os << " | digest " << s.digestStrides << "@"
           << s.lastDigestCycle;
    }
    return os.str();
}

} // namespace nox
