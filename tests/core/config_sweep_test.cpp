/**
 * @file
 * Config value sweep: every numeric key read by parseSyntheticConfig,
 * networkParamsFromConfig, faultParamsFromConfig and
 * obsParamsFromConfig is fed a junk suffix, an exponent on an
 * integer, a sign, 2^32+k, 2^64, 0, -1 and one past its bound. An
 * independent oracle (plain decimal digits for an integer, a finite
 * decimal for a double, inside the key's range) decides each value:
 * a valid one must be read to exactly its value, and every other one
 * must stop the run with exit code 1 and a `fatal:` message naming
 * `<key>=`. The cross-key rules are checked the same way.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/sim_runner.hpp"

namespace nox {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/** One numeric key: its valid range and the field it sets, read back
 *  through the synthetic parser (which runs the other three). */
struct NumericKey
{
    const char *key;
    bool isDouble;
    long double lo;
    long double hi;
    std::function<long double(const SyntheticConfig &)> field;
};

const std::vector<NumericKey> &
numericKeys()
{
    using C = const SyntheticConfig &;
    // Default window: warmup 10000, measure 30000, drain_limit
    // 150000; the sum must fit a cycle count.
    const long double u64 = static_cast<long double>(kU64Max);
    static const std::vector<NumericKey> keys = {
        // parseSyntheticConfig
        {"rate_mbps", true, 0.0L, std::numeric_limits<double>::max(),
         [](C c) { return c.injectionMBps; }},
        {"packet_flits", false, 1, 256, [](C c) { return c.packetFlits; }},
        {"warmup", false, 0, u64 - 180000,
         [](C c) { return c.warmupCycles; }},
        {"measure", false, 1, u64 - 160000,
         [](C c) { return c.measureCycles; }},
        {"drain_limit", false, 0, u64 - 40000,
         [](C c) { return c.drainLimitCycles; }},
        {"seed", false, 0, u64, [](C c) { return c.seed; }},
        {"checkpoint_interval", false, 0, u64,
         [](C c) { return c.checkpointInterval; }},
        {"checkpoint_keep", false, 1, 1000,
         [](C c) { return c.checkpointKeep; }},
        {"perturb_cycle", false, 0, u64,
         [](C c) { return c.net.debugPerturbCycle; }},
        {"perturb_router", false, 0, 63,
         [](C c) { return c.net.debugPerturbRouter; }},
        // networkParamsFromConfig
        {"width", false, 1, 32, [](C c) { return c.net.width; }},
        {"height", false, 1, 32, [](C c) { return c.net.height; }},
        {"concentration", false, 1, 16,
         [](C c) { return c.net.concentration; }},
        {"buffer_depth", false, 1, 32,
         [](C c) { return c.net.router.bufferDepth; }},
        {"vc_count", false, 1, 8,
         [](C c) { return c.net.router.vcCount; }},
        // faultParamsFromConfig
        {"fault_bitflip_rate", true, 0, 1,
         [](C c) { return c.net.faults.bitflipRate; }},
        {"fault_drop_rate", true, 0, 1,
         [](C c) { return c.net.faults.dropRate; }},
        {"fault_credit_loss_rate", true, 0, 1,
         [](C c) { return c.net.faults.creditLossRate; }},
        {"fault_seed", false, 0, u64,
         [](C c) { return c.net.faults.seed; }},
        {"fault_retry_timeout", false, 0, u64,
         [](C c) { return c.net.faults.retryTimeout; }},
        {"fault_watchdog_period", false, 0, u64,
         [](C c) { return c.net.faults.watchdogPeriod; }},
        {"hard_link_faults", false, 0, kIntMax,
         [](C c) { return c.net.faults.hardLinkFaults; }},
        {"hard_router_faults", false, 0, kIntMax,
         [](C c) { return c.net.faults.hardRouterFaults; }},
        {"hard_fault_cycle", false, 0, u64,
         [](C c) { return c.net.faults.hardFaultCycle; }},
        {"fault_age_limit", false, 0, u64,
         [](C c) { return c.net.faults.packetAgeLimit; }},
        {"e2e_timeout", false, 1, u64,
         [](C c) { return c.net.faults.e2eTimeout; }},
        {"e2e_retry_limit", false, 0, 255,
         [](C c) { return c.net.faults.e2eRetryLimit; }},
        {"e2e_ack_delay", false, 0, u64,
         [](C c) { return c.net.faults.e2eAckDelay; }},
        {"churn_waves", false, 0, 1024,
         [](C c) { return c.net.faults.churnWaves; }},
        {"churn_start", false, 0, u64,
         [](C c) { return c.net.faults.churnStart; }},
        {"churn_period", false, 0, u64,
         [](C c) { return c.net.faults.churnPeriod; }},
        {"churn_heal_after", false, 0, u64,
         [](C c) { return c.net.faults.churnHealAfter; }},
        {"churn_links", false, 0, kIntMax,
         [](C c) { return c.net.faults.churnLinks; }},
        {"churn_routers", false, 0, kIntMax,
         [](C c) { return c.net.faults.churnRouters; }},
        // obsParamsFromConfig
        {"trace_capacity", false, 1, 1 << 22,
         [](C c) { return c.net.obs.trace.capacity; }},
        {"metrics_interval", false, 1, u64,
         [](C c) { return c.net.obs.metrics.interval; }},
        {"telemetry_interval", false, 1, u64,
         [](C c) { return c.net.obs.telemetry.interval; }},
        {"digest_interval", false, 1, u64,
         [](C c) { return c.net.obs.digest.interval; }},
    };
    return keys;
}

/** The oracle: the value @p text must be read as, or nothing when it
 *  must be refused. */
std::optional<long double>
expectedValue(const NumericKey &k, const std::string &text)
{
    long double v = 0;
    if (k.isDouble) {
        static const std::regex decimal(
            R"(-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)");
        if (!std::regex_match(text, decimal))
            return std::nullopt;
        const double d = std::strtod(text.c_str(), nullptr);
        if (!std::isfinite(d))
            return std::nullopt;
        v = d;
    } else {
        static const std::regex integer(R"(-?\d+)");
        if (!std::regex_match(text, integer) || text.size() > 30)
            return std::nullopt;
        __int128 n = 0;
        for (char ch : text.substr(text[0] == '-' ? 1 : 0))
            n = n * 10 + (ch - '0');
        if (text[0] == '-')
            n = -n;
        if (n < static_cast<__int128>(k.lo) ||
            n > static_cast<__int128>(k.hi))
            return std::nullopt;
        return static_cast<long double>(n);
    }
    if (v < k.lo || v > k.hi)
        return std::nullopt;
    return v;
}

std::vector<std::string>
mutations(const NumericKey &k)
{
    std::vector<std::string> m = {
        "7x",      "1e3", "+1", "4294967297", "4294967300",
        "18446744073709551616", "0", "-1", "", " 2",
    };
    if (k.isDouble) {
        m.insert(m.end(), {"0.5", "0.5.5", "1e-3", "nan", "inf", "2",
                           "1e309", "0x10"});
    } else {
        m.push_back("18446744073709551615");
        // One past the bound, when the bound is not the type's.
        const auto hi = static_cast<__int128>(k.hi);
        if (hi < static_cast<__int128>(kU64Max)) {
            std::string s;
            for (__int128 n = hi + 1; n > 0; n /= 10)
                s.insert(s.begin(), static_cast<char>('0' + n % 10));
            m.push_back(s);
        }
    }
    return m;
}

SyntheticConfig
parse(const std::string &key, const std::string &text)
{
    Config c;
    c.set(key, text);
    return parseSyntheticConfig(c);
}

TEST(ConfigValueSweep, EveryNumericKeyReadsValidValuesAndRefusesTheRest)
{
    int read = 0, refused = 0;
    for (const NumericKey &k : numericKeys()) {
        for (const std::string &text : mutations(k)) {
            SCOPED_TRACE(std::string(k.key) + "=" + text);
            const std::optional<long double> want = expectedValue(k, text);
            if (want) {
                EXPECT_EQ(k.field(parse(k.key, text)), *want);
                ++read;
            } else {
                EXPECT_EXIT((void)parse(k.key, text),
                            ::testing::ExitedWithCode(1),
                            std::string("fatal: .*") + k.key + "=");
                ++refused;
            }
        }
    }
    // The sweep must exercise both outcomes on every kind of key.
    EXPECT_GT(read, 80);
    EXPECT_GT(refused, 250);
}

TEST(ConfigValueSweep, EverySweptKeyIsOneTheParserReads)
{
    Config c;
    for (const NumericKey &k : numericKeys())
        c.set(k.key, std::string(k.key == std::string("width") ||
                                         k.key == std::string("height")
                                     ? "2"
                                     : "1"));
    (void)parseSyntheticConfig(c);
    EXPECT_TRUE(c.unusedKeys().empty());
}

TEST(ConfigValueSweep, CrossKeyRulesAreRefusedNamingAKey)
{
    struct Case
    {
        std::vector<std::pair<const char *, const char *>> kv;
        const char *message;
    };
    const Case cases[] = {
        {{{"width", "1"}, {"height", "1"}}, "fatal: width=1 height=1"},
        {{{"pattern", "transpose"}, {"width", "3"}, {"height", "2"}},
         "fatal: pattern=transpose needs a square mesh"},
        {{{"pattern", "shuffle"}, {"width", "3"}, {"height", "2"}},
         "fatal: pattern=shuffle needs a power-of-two"},
        {{{"pattern", "bitcomp"}, {"width", "6"}}, "fatal: pattern=bitcomp"},
        {{{"pattern", "bitrev"}, {"height", "5"}}, "fatal: pattern=bitrev"},
        {{{"pattern", "tornado"}, {"concentration", "4"}},
         "fatal: pattern=tornado needs concentration=1"},
        {{{"warmup", "18446744073709551615"}, {"measure", "1"}},
         "fatal: warmup="},
        {{{"warmup", "18446744073709500000"}}, "fatal: warmup="},
        {{{"drain_limit", "18446744073709551615"}}, "fatal: warmup="},
        {{{"selfsimilar", "true"}, {"rate_mbps", "0"}},
         "fatal: rate_mbps=0"},
        {{{"width", "4"}, {"height", "4"}, {"perturb_router", "16"}},
         "fatal: perturb_router=16 is out of range \\(valid: 0\\.\\.15\\)"},
        {{{"arbiter", "lottery"}}, "fatal: arbiter=lottery"},
    };
    for (const Case &tc : cases) {
        Config c;
        for (const auto &[k, v] : tc.kv)
            c.set(k, std::string(v));
        EXPECT_EXIT((void)parseSyntheticConfig(c),
                    ::testing::ExitedWithCode(1), tc.message)
            << tc.message;
    }

    // The neighbours of each rule still parse.
    Config ok;
    ok.set("width", std::string("1"));
    ok.set("height", std::string("1"));
    ok.set("concentration", std::string("2"));
    EXPECT_EQ(parseSyntheticConfig(ok).net.concentration, 2);
    Config square;
    square.set("pattern", std::string("transpose"));
    square.set("width", std::string("4"));
    square.set("height", std::string("4"));
    EXPECT_EQ(parseSyntheticConfig(square).pattern, PatternKind::Transpose);
    Config hot;
    hot.set("pattern", std::string("hotspot"));
    hot.set("concentration", std::string("4"));
    EXPECT_EQ(parseSyntheticConfig(hot).net.concentration, 4);
}

} // namespace
} // namespace nox
