#include "bench_util.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/log.hpp"
#include "common/table.hpp"

namespace nox {
namespace bench {

std::vector<double>
defaultRates(bool quick)
{
    if (quick) {
        return {200, 575, 1000, 1500, 2000, 2500, 2775, 3100, 3400};
    }
    return {100,  200,  400,  575,  750,  1000, 1250, 1500, 1750,
            2000, 2250, 2500, 2775, 3000, 3200, 3400, 3600};
}

std::vector<PatternKind>
patternsFrom(const Config &config)
{
    const auto names = config.getStringList("patterns");
    std::vector<PatternKind> out;
    if (names.empty()) {
        out.assign(std::begin(kAllPatterns), std::end(kAllPatterns));
        return out;
    }
    for (const auto &n : names)
        out.push_back(parsePattern(n));
    return out;
}

std::vector<RouterArch>
archsFrom(const Config &config)
{
    const auto names = config.getStringList("archs");
    std::vector<RouterArch> out;
    if (names.empty()) {
        out.assign(std::begin(kAllArchs), std::end(kAllArchs));
        return out;
    }
    for (const auto &n : names)
        out.push_back(parseArch(n.c_str()));
    return out;
}

std::vector<std::string>
workloadsFrom(const Config &config)
{
    auto names = config.getStringList("workloads");
    if (!names.empty())
        return names;
    return {"barnes",  "fft",     "lu",   "ocean", "radix",
            "water",   "apache",  "specjbb", "specweb", "tpcc"};
}

void
applyCommon(const Config &config, SyntheticConfig *synth)
{
    synth->warmupCycles =
        config.getUint("warmup", synth->warmupCycles);
    synth->measureCycles =
        config.getUint("measure", synth->measureCycles);
    synth->drainLimitCycles =
        config.getUint("drain_limit", synth->drainLimitCycles);
    synth->seed = config.getUint("seed", synth->seed);
    synth->net.width = config.getInt("width", 8, 1, kMaxMeshSide);
    synth->net.height = config.getInt("height", 8, 1, kMaxMeshSide);
    const std::string sched = config.getString("scheduling");
    if (!sched.empty())
        synth->net.schedulingMode = parseSchedulingMode(sched.c_str());
}

std::vector<double>
ratesFrom(const Config &config)
{
    auto rates = config.getDoubleList("rates");
    if (!rates.empty())
        return rates;
    return defaultRates(config.getBool("quick", false));
}

void
printHeader(const std::string &title, const Config &config)
{
    std::cout << "==============================================\n";
    std::cout << title << '\n';
    std::cout << "==============================================\n";
    const auto items = config.items();
    if (!items.empty()) {
        std::cout << "config:";
        for (const auto &[k, v] : items)
            std::cout << ' ' << k << '=' << v;
        std::cout << '\n';
    }
    std::cout << '\n';
}

void
writeCsv(const Config &config, const std::string &name,
         const Table &table)
{
    const std::string dir = config.getString("csv_dir");
    if (dir.empty())
        return;
    const std::string path = dir + "/" + name + ".csv";
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    table.printCsv(out);
    if (!out.flush())
        fatal("error writing ", path);
    std::cout << "[csv] " << path << '\n';
}

void
finishRecordStats(PerfRecord *record,
                  const std::vector<double> &wallSamples)
{
    if (wallSamples.empty())
        return;
    double best = wallSamples.front();
    double sum = 0.0;
    for (double w : wallSamples) {
        best = std::min(best, w);
        sum += w;
    }
    const double n = static_cast<double>(wallSamples.size());
    const double mean = sum / n;
    double var = 0.0;
    for (double w : wallSamples)
        var += (w - mean) * (w - mean);
    // Sample stddev (n-1); zero for a single rep.
    const double stddev =
        wallSamples.size() > 1 ? std::sqrt(var / (n - 1.0)) : 0.0;
    record->wallSeconds = best;
    record->reps = static_cast<int>(wallSamples.size());
    record->meanWallSeconds = mean;
    record->stddevWallSeconds = stddev;
}

void
recordProfile(PerfRecord *record, const RunResult &result)
{
    if (!result.profiled)
        return;
    record->profiled = true;
    record->phaseSeconds = result.phaseSeconds;
    record->profileCoverage = result.profileCoverage;
}

namespace {

std::string
readFirstLine(const char *path)
{
    std::ifstream in(path);
    std::string line;
    if (in && std::getline(in, line))
        return line;
    return "";
}

} // namespace

const HostFingerprint &
hostFingerprint()
{
    static const HostFingerprint fp = [] {
        HostFingerprint h;
        h.cores = static_cast<int>(
            std::thread::hardware_concurrency());
        std::ifstream cpuinfo("/proc/cpuinfo");
        std::string line;
        while (cpuinfo && std::getline(cpuinfo, line)) {
            if (line.compare(0, 10, "model name") != 0)
                continue;
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t b = colon + 1;
                while (b < line.size() && line[b] == ' ')
                    ++b;
                h.cpu = line.substr(b);
            }
            break;
        }
        const std::string gov = readFirstLine(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
        if (!gov.empty())
            h.governor = gov;
        return h;
    }();
    return fp;
}

namespace {

/** Minimal JSON string escape (quotes/backslashes in CPU names). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

void
writePerfJson(const Config &config, const std::string &bench,
              const std::vector<PerfRecord> &records)
{
    const std::string path = config.getString("perf_json");
    if (path.empty())
        return;
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path);
    const HostFingerprint &host = hostFingerprint();
    out << "{\n  \"bench\": \"" << bench << "\",\n"
        << "  \"host\": {\"cpu\": \"" << jsonEscape(host.cpu)
        << "\", \"cores\": " << host.cores << ", \"governor\": \""
        << jsonEscape(host.governor) << "\"},\n"
        << "  \"records\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const PerfRecord &r = records[i];
        const double cps =
            r.wallSeconds > 0.0
                ? static_cast<double>(r.cycles) / r.wallSeconds
                : 0.0;
        out << "    {\"label\": \"" << r.label << "\", \"wall_s\": "
            << r.wallSeconds << ", \"cycles\": " << r.cycles
            << ", \"cycles_per_s\": " << cps;
        if (r.flitHops > 0) {
            const double hps =
                r.wallSeconds > 0.0
                    ? static_cast<double>(r.flitHops) / r.wallSeconds
                    : 0.0;
            out << ", \"flit_hops\": " << r.flitHops
                << ", \"flit_hops_per_s\": " << hps;
        }
        if (r.reps > 0) {
            out << ", \"reps\": " << r.reps
                << ", \"mean_wall_s\": " << r.meanWallSeconds
                << ", \"stddev_wall_s\": " << r.stddevWallSeconds;
        }
        if (r.profiled) {
            out << ", \"profile_coverage\": " << r.profileCoverage
                << ", \"phases\": {";
            for (std::size_t p = 0; p < kNumSimPhases; ++p) {
                out << (p ? ", " : "") << "\""
                    << simPhaseName(static_cast<SimPhase>(p))
                    << "\": " << r.phaseSeconds[p];
            }
            out << "}";
        }
        out << "}" << (i + 1 < records.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    if (!out.flush())
        fatal("error writing ", path);
    std::cout << "[perf] " << path << '\n';
}

void
warnUnused(const Config &config)
{
    for (const auto &key : config.unusedKeys())
        warn("unused config key: ", key);
}

} // namespace bench
} // namespace nox
