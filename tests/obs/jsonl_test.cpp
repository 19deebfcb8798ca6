/**
 * @file
 * The JSONL artifact reader: every record kind a loader reads back
 * (digest header and stride, flight header and event, profile header,
 * phase, router and imbalance lines) refuses each malformed variant of
 * each of its keys with an error naming `path:line` and the key; lines
 * written by the spaced-dialect writers of earlier builds still load
 * to their values; a flight dump cut at a line boundary is refused;
 * and a profile round-trips through its writer and loader exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/digest.hpp"
#include "obs/jsonl.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_recorder.hpp"

namespace nox {
namespace {

namespace fs = std::filesystem;

/** A per-test, per-process scratch directory (ctest -j runs tests
 *  concurrently). */
class ArtifactFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("nox-jsonl-" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()) +
                "-" + std::to_string(::getpid()));
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    fs::path dir_;
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::trunc);
    for (const std::string &line : lines)
        out << line << '\n';
}

using Loader = std::function<bool(const std::string &, std::string &)>;

bool
loadLedger(const std::string &path, std::string &err)
{
    LedgerFile file;
    return loadDigestLedger(path, &file, &err);
}

bool
loadDump(const std::string &path, std::string &err)
{
    FlightDump dump;
    return loadFlightDump(path, dump, err);
}

bool
loadProf(const std::string &path, std::string &err)
{
    ProfileFile file;
    return loadProfile(path, file, err);
}

// ---- writers of the canonical files the sweep mutates ---------------

std::vector<std::string>
ledgerLines(const std::string &path)
{
    DigestParams params;
    params.enabled = true;
    params.interval = 100;
    params.jsonlPath = path;
    {
        DigestLedger ledger(params);
        ledger.writeHeader("arch=test mesh=2x1");
        DigestStride s;
        s.cycle = 100;
        s.global = 0x1111;
        s.sources = 0x2222;
        s.faults = 0x3333;
        s.transport = 0x4444;
        s.routers = {0xAAAA, 0xBBBB};
        s.nics = {0xCCCC, 0xDDDD};
        ledger.record(s);
    }
    return readLines(path);
}

std::vector<std::string>
dumpLines(const std::string &path)
{
    TraceParams params;
    params.enabled = true;
    params.capacity = 8;
    params.flightPath = path;
    TraceRecorder rec(params);
    rec.beginCycle(42);
    rec.record(TraceEventKind::FlitSend, 2, 1, 0x1234, 7, false);
    rec.triggerFlightDump("test", {3, 5});
    return readLines(path);
}

/** A 2x2 profile with phases, steps and per-router work filled in. */
PhaseProfiler
sampleProfiler()
{
    PhaseProfiler prof(ProfilerParams{true, ""}, 4);
    for (int step = 0; step < 3; ++step) {
        prof.beginStep();
        {
            ProfScope s(&prof, SimPhase::TrafficInject);
        }
        {
            ProfScope s(&prof, SimPhase::RouterEvaluate);
            for (NodeId r = 0; r < 4; ++r) {
                if (r != 2)
                    prof.countEval(r);
            }
        }
        prof.endStep();
    }
    for (NodeId r = 0; r < 4; ++r)
        prof.recordRouterWork(r, 10u * static_cast<unsigned>(r) + 1, r);
    return prof;
}

const ProfileMeta kMeta{2, 2, "NoX", "activity"};

std::vector<std::string>
profileLines(const std::string &path)
{
    EXPECT_TRUE(sampleProfiler().writeJsonl(path, kMeta));
    return readLines(path);
}

// ---- the mutation sweep ---------------------------------------------

enum class Ty { U64, U32, I32, I8, Bool, F64, Str, Hex, HexArr, I32Arr };

struct Key
{
    const char *name;
    Ty ty;
};

/** One record kind: a canonical file, the line the sweep mutates
 *  (0-based) and that line's keys in order. */
struct RecordKind
{
    const char *name;
    std::vector<std::string> lines;
    std::size_t target;
    std::vector<Key> keys;
    Loader load;
};

/** Where a key's value sits in a compact line. */
struct Span
{
    std::size_t key;   ///< the opening quote of the key
    std::size_t value; ///< first character of the value
    std::size_t end;   ///< one past the value
};

Span
locate(const std::string &line, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const std::size_t k = line.find(pat);
    EXPECT_NE(k, std::string::npos) << key << " in " << line;
    std::size_t e = k + pat.size();
    const std::size_t v = e;
    if (line[e] == '"') {
        for (++e; line[e] != '"'; ++e)
            e += line[e] == '\\';
        ++e;
    } else if (line[e] == '[') {
        e = line.find(']', e) + 1;
    } else {
        while (line[e] != ',' && line[e] != '}')
            ++e;
    }
    return {k, v, e};
}

bool
isInteger(Ty t)
{
    return t == Ty::U64 || t == Ty::U32 || t == Ty::I32 || t == Ty::I8 ||
           t == Ty::Bool;
}

/** The value one past the range of @p t ("" when it has none). */
std::string
pastRange(Ty t)
{
    switch (t) {
      case Ty::U64:
        return "18446744073709551616";
      case Ty::U32:
        return "4294967296";
      case Ty::I32:
        return "2147483648";
      case Ty::I8:
        return "128";
      case Ty::Bool:
        return "2";
      case Ty::F64:
        return "1e309";
      case Ty::Hex:
        return "\"10000000000000000\"";
      case Ty::HexArr:
        return "[\"10000000000000000\"]";
      case Ty::I32Arr:
        return "[2147483648]";
      case Ty::Str:
        return "";
    }
    return "";
}

struct Mutation
{
    std::string what;
    std::string line;
    std::string key; ///< the key the error must name
};

std::vector<Mutation>
mutations(const std::string &line, const Key &k)
{
    const Span s = locate(line, k.name);
    const std::string field = line.substr(s.key, s.end - s.key);
    const std::string value = line.substr(s.value, s.end - s.value);
    const auto withValue = [&](const std::string &v) {
        return line.substr(0, s.value) + v + line.substr(s.end);
    };
    std::vector<Mutation> out;
    // Delete the key with the comma that joins it to its neighbour.
    std::string deleted = line;
    if (deleted[s.key - 1] == ',')
        deleted.erase(s.key - 1, s.end - s.key + 1);
    else
        deleted.erase(s.key, s.end - s.key + 1);
    out.push_back({"delete", deleted, k.name});
    out.push_back({"repeat",
                   line.substr(0, s.end) + "," + field + line.substr(s.end),
                   k.name});
    const std::string unknown = std::string(k.name) + "_x";
    out.push_back({"unknown key",
                   line.substr(0, s.end) + ",\"" + unknown + "\":" + value +
                       line.substr(s.end),
                   unknown});
    if (isInteger(k.ty) || k.ty == Ty::F64)
        out.push_back({"quoted number", withValue("\"" + value + "\""),
                       k.name});
    else
        out.push_back({"number for a string", withValue("7"), k.name});
    if (k.ty == Ty::U64 || k.ty == Ty::U32 || k.ty == Ty::Bool)
        out.push_back({"negative", withValue("-1"), k.name});
    if (!pastRange(k.ty).empty())
        out.push_back({"past range", withValue(pastRange(k.ty)), k.name});
    if (isInteger(k.ty))
        out.push_back({"fraction", withValue("1.5"), k.name});
    if (k.ty == Ty::I32Arr)
        out.push_back({"fraction", withValue("[1.5]"), k.name});
    out.push_back({"junk after the value",
                   line.substr(0, s.end) + "x" + line.substr(s.end), k.name});
    const std::size_t cut = s.value + std::max<std::size_t>(
                                          1, (s.end - s.value) / 2);
    out.push_back({"cut mid-token", line.substr(0, cut), k.name});
    return out;
}

class JsonlReaderSweep : public ArtifactFile
{
  protected:
    std::vector<RecordKind>
    kinds()
    {
        const auto ledger = ledgerLines(path("ledger.jsonl"));
        const auto dump = dumpLines(path("dump.jsonl"));
        const auto prof = profileLines(path("profile.jsonl"));
        EXPECT_EQ(ledger.size(), 2u);
        EXPECT_EQ(dump.size(), 2u);
        EXPECT_EQ(prof.size(), 1u + kNumSimPhases + 4u + 2u);
        return {
            {"digest_header",
             ledger,
             0,
             {{"type", Ty::Str}, {"interval", Ty::U64},
              {"fingerprint", Ty::Str}},
             loadLedger},
            {"digest",
             ledger,
             1,
             {{"type", Ty::Str},
              {"cycle", Ty::U64},
              {"fold", Ty::Hex},
              {"global", Ty::Hex},
              {"sources", Ty::Hex},
              {"faults", Ty::Hex},
              {"transport", Ty::Hex},
              {"routers", Ty::HexArr},
              {"nics", Ty::HexArr}},
             loadLedger},
            {"flight header",
             dump,
             0,
             {{"flight_recorder", Ty::Str},
              {"cycle", Ty::U64},
              {"events", Ty::U64},
              {"first_cycle", Ty::U64},
              {"last_cycle", Ty::U64},
              {"implicated", Ty::I32Arr}},
             loadDump},
            {"flight event",
             dump,
             1,
             {{"c", Ty::U64},
              {"k", Ty::Str},
              {"n", Ty::I32},
              {"nic", Ty::Bool},
              {"p", Ty::I8},
              {"id", Ty::U64},
              {"a", Ty::U32}},
             loadDump},
            {"profile_header",
             prof,
             0,
             {{"type", Ty::Str},
              {"steps", Ty::U64},
              {"total_ns", Ty::U64},
              {"phase_ns_sum", Ty::U64},
              {"coverage", Ty::F64},
              {"width", Ty::I32},
              {"height", Ty::I32},
              {"arch", Ty::Str},
              {"sched", Ty::Str},
              {"routers", Ty::U64}},
             loadProf},
            {"phase",
             prof,
             1,
             {{"type", Ty::Str},
              {"name", Ty::Str},
              {"ns", Ty::U64},
              {"enters", Ty::U64}},
             loadProf},
            {"router",
             prof,
             1 + kNumSimPhases,
             {{"type", Ty::Str},
              {"id", Ty::U64},
              {"evals", Ty::U64},
              {"flits", Ty::U64},
              {"arb", Ty::U64}},
             loadProf},
            {"imbalance",
             prof,
             prof.size() - 1,
             {{"type", Ty::Str},
              {"by", Ty::Str},
              {"shards", Ty::I32},
              {"index", Ty::F64}},
             loadProf},
        };
    }

    /** Load @p kind's file with its target line replaced; expect a
     *  refusal naming the line and @p key. */
    void
    expectRejected(const RecordKind &kind, const std::string &line,
                   const std::string &key, const std::string &what)
    {
        std::vector<std::string> lines = kind.lines;
        lines[kind.target] = line;
        const std::string file = path("mutated.jsonl");
        writeLines(file, lines);
        std::string err;
        const std::string where =
            file + ":" + std::to_string(kind.target + 1) + ":";
        EXPECT_FALSE(kind.load(file, err))
            << kind.name << " " << key << " " << what << ": " << line;
        EXPECT_NE(err.find(where), std::string::npos)
            << kind.name << " " << what << ": " << err;
        EXPECT_NE(err.find("\"" + key + "\""), std::string::npos)
            << kind.name << " " << what << ": " << err;
    }
};

TEST_F(JsonlReaderSweep, CanonicalFilesLoad)
{
    for (const RecordKind &kind : kinds()) {
        const std::string file = path("canonical.jsonl");
        writeLines(file, kind.lines);
        std::string err;
        EXPECT_TRUE(kind.load(file, err)) << kind.name << ": " << err;
        // Every key the sweep mutates is on the line, in line order.
        std::size_t at = 0;
        for (const Key &k : kind.keys) {
            const std::size_t found = locate(kind.lines[kind.target],
                                             k.name).key;
            EXPECT_GE(found, at) << kind.name << " " << k.name;
            at = found;
        }
    }
}

TEST_F(JsonlReaderSweep, EveryMutationOfEveryKeyIsRejected)
{
    std::size_t cases = 0;
    for (const RecordKind &kind : kinds()) {
        for (const Key &k : kind.keys) {
            for (const Mutation &m :
                 mutations(kind.lines[kind.target], k)) {
                expectRejected(kind, m.line, m.key, m.what);
                ++cases;
            }
        }
    }
    EXPECT_GT(cases, 350u);
}

TEST_F(JsonlReaderSweep, TextAfterTheClosingBraceIsRejected)
{
    for (const RecordKind &kind : kinds()) {
        const std::string line = kind.lines[kind.target];
        expectRejected(kind, line + "x", kind.keys.back().name,
                       "junk after }");
        expectRejected(kind, line + "{}", kind.keys.back().name,
                       "second object");
    }
}

// ---- flight dumps -----------------------------------------------------

TEST_F(ArtifactFile, FlightDumpCutAtALineBoundaryIsRejected)
{
    TraceParams params;
    params.enabled = true;
    params.capacity = 16;
    params.flightPath = path("flight.jsonl");
    TraceRecorder rec(params);
    for (Cycle c = 1; c <= 5; ++c) {
        rec.beginCycle(c);
        rec.record(TraceEventKind::FlitSend, 0, 1, c << 8, 1, false);
    }
    ASSERT_TRUE(rec.triggerFlightDump("test", {}));
    std::vector<std::string> lines = readLines(params.flightPath);
    ASSERT_EQ(lines.size(), 6u);

    FlightDump dump;
    std::string err;
    ASSERT_TRUE(loadFlightDump(params.flightPath, dump, err)) << err;
    EXPECT_EQ(dump.events.size(), 5u);

    lines.pop_back();
    writeLines(params.flightPath, lines);
    EXPECT_FALSE(loadFlightDump(params.flightPath, dump, err));
    EXPECT_NE(err.find(params.flightPath + ":1: \"events\""),
              std::string::npos)
        << err;
}

TEST_F(ArtifactFile, FlightDumpSkipsKindsThisBuildCannotName)
{
    writeLines(path("flight.jsonl"),
               {R"({"flight_recorder":"x","cycle":2,"events":2,)"
                R"("first_cycle":1,"last_cycle":2,"implicated":[]})",
                R"({"c":1,"k":"future_kind","n":0,"nic":0,"p":1,"id":1,"a":0})",
                R"({"c":2,"k":"flit_send","n":0,"nic":0,"p":1,"id":1,"a":0})"});
    FlightDump dump;
    std::string err;
    ASSERT_TRUE(loadFlightDump(path("flight.jsonl"), dump, err)) << err;
    ASSERT_EQ(dump.events.size(), 1u);
    EXPECT_EQ(dump.events[0].kind, TraceEventKind::FlitSend);
}

// ---- files written by the spaced-dialect writers of earlier builds ----

TEST_F(ArtifactFile, ParentDialectLedgerLoads)
{
    writeLines(
        path("ledger.jsonl"),
        {R"({"type": "digest_header", "interval": 25, "fingerprint": "arch=NoX mesh=2x1x1 buf=4 vcs=1 sink=4 arb=0 routing=0 sched=alwaystick faults=0 trace=1/65536 metrics=0 prov=0"})",
         R"({"type": "digest", "cycle": 25, "fold": "8a1660368da3697a", "global": "7e40b5d21de8c0b2", "sources": "ee65a01ff567b0b9", "faults": "0000000000000000", "transport": "0000000000000000", "routers": ["6a6537be7188c174", "2dfcacf49e5894d4"], "nics": ["1d2a6814d8df43d3", "0f8618beb4a14096"]})"});
    LedgerFile file;
    std::string err;
    ASSERT_TRUE(loadDigestLedger(path("ledger.jsonl"), &file, &err)) << err;
    EXPECT_EQ(file.interval, 25u);
    EXPECT_EQ(file.fingerprint.substr(0, 20), "arch=NoX mesh=2x1x1 ");
    ASSERT_EQ(file.strides.size(), 1u);
    const DigestStride &s = file.strides[0];
    EXPECT_EQ(s.cycle, 25u);
    EXPECT_EQ(s.fold(), 0x8a1660368da3697aULL);
    EXPECT_EQ(s.global, 0x7e40b5d21de8c0b2ULL);
    EXPECT_EQ(s.sources, 0xee65a01ff567b0b9ULL);
    EXPECT_EQ(s.faults, 0u);
    EXPECT_EQ(s.transport, 0u);
    EXPECT_EQ(s.routers, (std::vector<DigestHash>{0x6a6537be7188c174ULL,
                                                  0x2dfcacf49e5894d4ULL}));
    EXPECT_EQ(s.nics, (std::vector<DigestHash>{0x1d2a6814d8df43d3ULL,
                                               0x0f8618beb4a14096ULL}));
}

TEST_F(ArtifactFile, ParentDialectFlightDumpLoads)
{
    writeLines(
        path("flight.jsonl"),
        {R"({"flight_recorder":"end-of-run","cycle":3,"events":6,"first_cycle":0,"last_cycle":3,"implicated":[]})",
         R"({"c":0,"k":"packet_create","n":0,"nic":1,"p":-1,"id":1,"a":65537})",
         R"({"c":0,"k":"flit_inject","n":0,"nic":1,"p":4,"id":256,"a":0})",
         R"({"c":1,"k":"flit_send","n":0,"nic":0,"p":1,"id":256,"a":1})",
         R"({"c":2,"k":"flit_send","n":1,"nic":0,"p":4,"id":256,"a":1})",
         R"({"c":3,"k":"flit_eject","n":1,"nic":1,"p":4,"id":256,"a":0})",
         R"({"c":3,"k":"packet_done","n":1,"nic":1,"p":-1,"id":1,"a":3})"});
    FlightDump dump;
    std::string err;
    ASSERT_TRUE(loadFlightDump(path("flight.jsonl"), dump, err)) << err;
    EXPECT_EQ(dump.reason, "end-of-run");
    EXPECT_EQ(dump.dumpCycle, 3u);
    EXPECT_EQ(dump.firstCycle, 0u);
    EXPECT_EQ(dump.lastCycle, 3u);
    EXPECT_TRUE(dump.implicated.empty());
    ASSERT_EQ(dump.events.size(), 6u);
    const TraceEvent &create = dump.events[0];
    EXPECT_EQ(create.kind, TraceEventKind::PacketCreate);
    EXPECT_EQ(create.cycle, 0u);
    EXPECT_EQ(create.node, 0);
    EXPECT_TRUE(create.nic);
    EXPECT_EQ(create.port, -1);
    EXPECT_EQ(create.id, 1u);
    EXPECT_EQ(create.arg, 65537u);
    const TraceEvent &send = dump.events[3];
    EXPECT_EQ(send.kind, TraceEventKind::FlitSend);
    EXPECT_EQ(send.cycle, 2u);
    EXPECT_EQ(send.node, 1);
    EXPECT_FALSE(send.nic);
    EXPECT_EQ(send.port, 4);
    EXPECT_EQ(send.id, 256u);
    EXPECT_EQ(dump.events[5].kind, TraceEventKind::PacketDone);
}

TEST_F(ArtifactFile, ParentDialectProfileLoads)
{
    writeLines(
        path("profile.jsonl"),
        {R"({"type": "profile_header", "steps": 50, "total_ns": 429462, "phase_ns_sum": 410597, "coverage": 0.956073, "width": 2, "height": 1, "arch": "NoX", "sched": "alwaystick", "routers": 2})",
         R"({"type": "phase", "name": "traffic_inject", "ns": 15880, "enters": 100})",
         R"({"type": "phase", "name": "link_retry", "ns": 0, "enters": 0})",
         R"({"type": "phase", "name": "router_evaluate", "ns": 20641, "enters": 50})",
         R"({"type": "phase", "name": "nic_eject", "ns": 7720, "enters": 50})",
         R"({"type": "phase", "name": "scheduler", "ns": 7177, "enters": 50})",
         R"({"type": "phase", "name": "obs_flush", "ns": 359179, "enters": 54})",
         R"({"type": "phase", "name": "checkpoint", "ns": 0, "enters": 0})",
         R"({"type": "router", "id": 0, "evals": 50, "flits": 14, "arb": 14})",
         R"({"type": "router", "id": 1, "evals": 50, "flits": 14, "arb": 14})",
         R"({"type": "imbalance", "by": "evals", "shards": 1, "index": 1})",
         R"({"type": "imbalance", "by": "flits", "shards": 1, "index": 1})"});
    ProfileFile p;
    std::string err;
    ASSERT_TRUE(loadProfile(path("profile.jsonl"), p, err)) << err;
    EXPECT_EQ(p.steps, 50u);
    EXPECT_EQ(p.totalNs, 429462u);
    EXPECT_EQ(p.phaseNsSum, 410597u);
    EXPECT_EQ(p.coverage, 0.956073);
    EXPECT_EQ(p.meta.width, 2);
    EXPECT_EQ(p.meta.height, 1);
    EXPECT_EQ(p.meta.arch, "NoX");
    EXPECT_EQ(p.meta.sched, "alwaystick");
    EXPECT_EQ(p.routerCount, 2u);
    ASSERT_EQ(p.phases.size(), kNumSimPhases);
    EXPECT_EQ(p.phases[5].name, "obs_flush");
    EXPECT_EQ(p.phases[5].totals.ns, 359179u);
    EXPECT_EQ(p.phases[5].totals.enters, 54u);
    ASSERT_EQ(p.routers.size(), 2u);
    EXPECT_EQ(p.routers[1].id, 1u);
    EXPECT_EQ(p.routers[1].work.evaluations, 50u);
    EXPECT_EQ(p.routers[1].work.flitsMoved, 14u);
    EXPECT_EQ(p.routers[1].work.arbRounds, 14u);
    ASSERT_EQ(p.imbalances.size(), 2u);
    EXPECT_EQ(p.imbalances[1].by, "flits");
    EXPECT_EQ(p.imbalances[1].shards, 1);
    EXPECT_EQ(p.imbalances[1].index, 1.0);
}

// ---- profiles: derived fields and the round trip -----------------------

TEST_F(ArtifactFile, ProfileDerivedFieldsAreChecked)
{
    std::vector<std::string> lines = profileLines(path("profile.jsonl"));
    std::string err;
    ProfileFile p;
    // Drop a router line: the header's router count no longer holds.
    std::vector<std::string> fewer = lines;
    fewer.erase(fewer.begin() + 1 + kNumSimPhases);
    writeLines(path("fewer.jsonl"), fewer);
    EXPECT_FALSE(loadProfile(path("fewer.jsonl"), p, err));
    EXPECT_NE(err.find("fewer.jsonl:1: \"routers\""), std::string::npos)
        << err;
    // Drop a phase line: its nanoseconds leave phase_ns_sum.
    std::vector<std::string> phases = lines;
    phases.erase(phases.begin() + 1);
    writeLines(path("phases.jsonl"), phases);
    EXPECT_FALSE(loadProfile(path("phases.jsonl"), p, err));
    EXPECT_NE(err.find("phases.jsonl:1: \"phase_ns_sum\""),
              std::string::npos)
        << err;
}

TEST_F(ArtifactFile, ProfileRoundTripsExactly)
{
    const PhaseProfiler prof = sampleProfiler();
    ASSERT_TRUE(prof.writeJsonl(path("profile.jsonl"), kMeta));
    const ProfileFile want = prof.report(kMeta);
    ProfileFile got;
    std::string err;
    ASSERT_TRUE(loadProfile(path("profile.jsonl"), got, err)) << err;

    EXPECT_EQ(got.steps, want.steps);
    EXPECT_EQ(got.totalNs, want.totalNs);
    EXPECT_EQ(got.phaseNsSum, want.phaseNsSum);
    EXPECT_EQ(got.coverage, want.coverage); // exact, not near
    EXPECT_EQ(got.meta.width, want.meta.width);
    EXPECT_EQ(got.meta.height, want.meta.height);
    EXPECT_EQ(got.meta.arch, want.meta.arch);
    EXPECT_EQ(got.meta.sched, want.meta.sched);
    EXPECT_EQ(got.routerCount, want.routerCount);
    ASSERT_EQ(got.phases.size(), want.phases.size());
    for (std::size_t i = 0; i < want.phases.size(); ++i) {
        EXPECT_EQ(got.phases[i].name, want.phases[i].name);
        EXPECT_EQ(got.phases[i].totals.ns, want.phases[i].totals.ns);
        EXPECT_EQ(got.phases[i].totals.enters,
                  want.phases[i].totals.enters);
    }
    ASSERT_EQ(got.routers.size(), want.routers.size());
    for (std::size_t i = 0; i < want.routers.size(); ++i) {
        EXPECT_EQ(got.routers[i].id, want.routers[i].id);
        EXPECT_EQ(got.routers[i].work.evaluations,
                  want.routers[i].work.evaluations);
        EXPECT_EQ(got.routers[i].work.flitsMoved,
                  want.routers[i].work.flitsMoved);
        EXPECT_EQ(got.routers[i].work.arbRounds,
                  want.routers[i].work.arbRounds);
    }
    ASSERT_EQ(got.imbalances.size(), 2u);
    for (std::size_t i = 0; i < want.imbalances.size(); ++i) {
        EXPECT_EQ(got.imbalances[i].by, want.imbalances[i].by);
        EXPECT_EQ(got.imbalances[i].shards, want.imbalances[i].shards);
        EXPECT_EQ(got.imbalances[i].index, want.imbalances[i].index);
    }
    // Router 2 did no evaluations: the index is not a round number.
    EXPECT_NE(want.imbalances[0].index, 1.0);
}

// ---- the Writer and Reader themselves ----------------------------------

TEST_F(ArtifactFile, ValuesRoundTripExactly)
{
    const std::string text = "q\"b\\s/t\tn\nc\x01 end";
    const double third = 1.0 / 3.0;
    const double tiny = 4.9e-324;
    {
        std::ofstream out(path("v.jsonl"));
        jsonl::Writer w(out);
        w.record([&] {
            w.field("s", text);
            w.field("d", third);
            w.field("t", tiny);
            w.field("i", std::int64_t{-9223372036854775807 - 1});
            w.field("u", std::uint64_t{18446744073709551615u});
            w.field("b", true);
            w.field("v", std::vector<int>{-1, 0, 7});
        });
    }
    const std::vector<std::string> lines = readLines(path("v.jsonl"));
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0].find(' '), lines[0].find(" end")) << lines[0];

    jsonl::Reader r(path("v.jsonl"));
    ASSERT_TRUE(r.next());
    std::string s;
    double d = 0, t = 0;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    bool b = false;
    std::vector<int> v;
    r.record([&] {
        r.field("s", s);
        r.field("d", d);
        r.field("t", t);
        r.field("i", i);
        r.field("u", u);
        r.field("b", b);
        r.field("v", v);
    });
    EXPECT_EQ(s, text);
    EXPECT_EQ(d, third);
    EXPECT_EQ(t, tiny);
    EXPECT_EQ(i, -9223372036854775807 - 1);
    EXPECT_EQ(u, 18446744073709551615u);
    EXPECT_TRUE(b);
    EXPECT_EQ(v, (std::vector<int>{-1, 0, 7}));
    EXPECT_FALSE(r.next());
}

TEST_F(ArtifactFile, ReaderAcceptsWhitespaceAndSkipsBlankLines)
{
    writeLines(path("ws.jsonl"),
               {"", "  { \"a\" : 1 ,\t\"b\" : [ 2 , 3 ] }  ", "   "});
    jsonl::Reader r(path("ws.jsonl"));
    ASSERT_TRUE(r.next());
    EXPECT_EQ(r.line(), 2u);
    int a = 0;
    std::vector<int> b;
    r.record([&] {
        r.field("a", a);
        r.field("b", b);
    });
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, (std::vector<int>{2, 3}));
    EXPECT_FALSE(r.next());
}

TEST_F(ArtifactFile, NonFiniteDoublesAreRejected)
{
    for (const char *v : {"nan", "inf", "-inf", "1e999"}) {
        writeLines(path("d.jsonl"), {std::string("{\"d\":") + v + "}"});
        jsonl::Reader r(path("d.jsonl"));
        ASSERT_TRUE(r.next());
        double d = 0;
        EXPECT_THROW(r.record([&] { r.field("d", d); }), jsonl::Error)
            << v;
    }
}

} // namespace
} // namespace nox
