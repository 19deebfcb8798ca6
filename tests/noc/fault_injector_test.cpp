/**
 * @file
 * Unit tests for deterministic link-fault injection: hash-keyed draw
 * determinism and order-independence, one-shot targeted faults, the
 * drop-beats-bitflip rule, counter/log bookkeeping, link CRC
 * properties, the pinned CRC-32C values, and fault_* config parsing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "noc/fault_injector.hpp"
#include "noc/flit.hpp"
#include "snapshot/io.hpp"

namespace nox {
namespace {

FaultParams
rateParams(double bitflip, double drop, double credit,
           std::uint64_t seed = 0xFA01)
{
    FaultParams p;
    p.enabled = true;
    p.bitflipRate = bitflip;
    p.dropRate = drop;
    p.creditLossRate = credit;
    p.seed = seed;
    return p;
}

/** One recorded draw outcome, for schedule comparison. */
struct DrawRecord
{
    std::uint64_t flipMask;
    bool dropped;
    bool creditLost;

    bool
    operator==(const DrawRecord &o) const
    {
        return flipMask == o.flipMask && dropped == o.dropped &&
               creditLost == o.creditLost;
    }
};

std::vector<DrawRecord>
sweepSchedule(FaultInjector &inj)
{
    std::vector<DrawRecord> out;
    for (Cycle t = 0; t < 200; ++t) {
        inj.beginCycle(t);
        for (NodeId r = 0; r < 4; ++r) {
            for (int p = 0; p < 5; ++p) {
                const FlitFaults f = inj.drawFlitFaults(r, p);
                const bool c = inj.drawCreditLoss(r, p, 0);
                out.push_back({f.flipMask, f.dropped, c});
            }
        }
    }
    return out;
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    FaultInjector a(rateParams(0.1, 0.05, 0.05));
    FaultInjector b(rateParams(0.1, 0.05, 0.05));
    EXPECT_EQ(sweepSchedule(a), sweepSchedule(b));

    // The fault logs agree event-for-event too.
    ASSERT_EQ(a.log().size(), b.log().size());
    EXPECT_GT(a.log().size(), 0u);
    for (std::size_t i = 0; i < a.log().size(); ++i) {
        EXPECT_EQ(a.log()[i].cycle, b.log()[i].cycle);
        EXPECT_EQ(a.log()[i].kind, b.log()[i].kind);
        EXPECT_EQ(a.log()[i].router, b.log()[i].router);
        EXPECT_EQ(a.log()[i].port, b.log()[i].port);
        EXPECT_EQ(a.log()[i].flipMask, b.log()[i].flipMask);
    }
    EXPECT_TRUE(a.stats().identicalTo(b.stats()));
}

TEST(FaultInjector, DifferentSeedsDifferentSchedule)
{
    FaultInjector a(rateParams(0.1, 0.05, 0.05, 1));
    FaultInjector b(rateParams(0.1, 0.05, 0.05, 2));
    EXPECT_NE(sweepSchedule(a), sweepSchedule(b));
}

TEST(FaultInjector, DrawsAreOrderIndependent)
{
    // The draw is a pure function of the event identity — the
    // property that makes the schedule identical across scheduling
    // kernels, which evaluate routers in different orders.
    FaultInjector a(rateParams(0.3, 0.2, 0.2));
    FaultInjector b(rateParams(0.3, 0.2, 0.2));
    a.beginCycle(7);
    b.beginCycle(7);

    const FlitFaults a01 = a.drawFlitFaults(0, 1);
    const FlitFaults a23 = a.drawFlitFaults(2, 3);
    const FlitFaults b23 = b.drawFlitFaults(2, 3); // reversed order
    const FlitFaults b01 = b.drawFlitFaults(0, 1);

    EXPECT_EQ(a01.flipMask, b01.flipMask);
    EXPECT_EQ(a01.dropped, b01.dropped);
    EXPECT_EQ(a23.flipMask, b23.flipMask);
    EXPECT_EQ(a23.dropped, b23.dropped);
}

TEST(FaultInjector, BitflipFlipsExactlyOneBit)
{
    FaultInjector inj(rateParams(1.0, 0.0, 0.0));
    for (Cycle t = 0; t < 64; ++t) {
        inj.beginCycle(t);
        const FlitFaults f = inj.drawFlitFaults(1, 2);
        EXPECT_FALSE(f.dropped);
        ASSERT_NE(f.flipMask, 0u);
        // Power of two: exactly one payload bit upset per event.
        EXPECT_EQ(f.flipMask & (f.flipMask - 1), 0u);
    }
    EXPECT_EQ(inj.stats().bitflipsInjected, 64u);
    EXPECT_EQ(inj.stats().faultsInjected, 64u);
}

TEST(FaultInjector, DropBeatsBitflip)
{
    // With both rates certain, the flit vanishes — there are no bits
    // left to corrupt, and only the drop is accounted.
    FaultInjector inj(rateParams(1.0, 1.0, 0.0));
    inj.beginCycle(0);
    const FlitFaults f = inj.drawFlitFaults(0, 0);
    EXPECT_TRUE(f.dropped);
    EXPECT_EQ(f.flipMask, 0u);
    EXPECT_EQ(inj.stats().dropsInjected, 1u);
    EXPECT_EQ(inj.stats().bitflipsInjected, 0u);
}

TEST(FaultInjector, OneShotFiresOnceAtOrAfterCycle)
{
    FaultParams p;
    p.enabled = true; // no rates: only targeted faults fire
    FaultInjector inj(p);
    inj.scheduleOneShot(FaultKind::Drop, 5, 2, 3);
    EXPECT_EQ(inj.pendingOneShots(), 1u);

    inj.beginCycle(3);
    EXPECT_FALSE(inj.drawFlitFaults(2, 3).dropped); // too early
    inj.beginCycle(5);
    EXPECT_FALSE(inj.drawFlitFaults(2, 0).dropped); // wrong port
    EXPECT_FALSE(inj.drawFlitFaults(1, 3).dropped); // wrong router
    EXPECT_TRUE(inj.drawFlitFaults(2, 3).dropped);  // fires
    EXPECT_EQ(inj.pendingOneShots(), 0u);
    EXPECT_FALSE(inj.drawFlitFaults(2, 3).dropped); // consumed
    EXPECT_EQ(inj.stats().dropsInjected, 1u);
}

TEST(FaultInjector, OneShotBitflipMaskDefaultsToBitZero)
{
    FaultParams p;
    p.enabled = true;
    FaultInjector inj(p);
    inj.scheduleOneShot(FaultKind::BitFlip, 0, 1, 1);
    inj.scheduleOneShot(FaultKind::BitFlip, 0, 1, 2, 0xF0ULL);
    inj.beginCycle(0);
    EXPECT_EQ(inj.drawFlitFaults(1, 1).flipMask, 1u);
    EXPECT_EQ(inj.drawFlitFaults(1, 2).flipMask, 0xF0u);
}

TEST(FaultInjector, OneShotCreditLoss)
{
    FaultParams p;
    p.enabled = true;
    FaultInjector inj(p);
    inj.scheduleOneShot(FaultKind::CreditLoss, 2, 0, kPortEast);
    inj.beginCycle(2);
    EXPECT_FALSE(inj.drawCreditLoss(0, kPortWest));
    EXPECT_TRUE(inj.drawCreditLoss(0, kPortEast));
    EXPECT_FALSE(inj.drawCreditLoss(0, kPortEast));
    EXPECT_EQ(inj.stats().creditsLostInjected, 1u);
}

TEST(FaultInjector, BindStatsRedirectsCounters)
{
    FaultStats external;
    FaultInjector inj(rateParams(1.0, 0.0, 0.0));
    inj.bindStats(&external);
    inj.beginCycle(0);
    inj.drawFlitFaults(0, 0);
    inj.onCorruptionRejected();
    inj.onRetransmission();
    EXPECT_EQ(external.faultsInjected, 1u);
    EXPECT_EQ(external.faultsDetected, 1u);
    EXPECT_EQ(external.retransmissions, 1u);
    EXPECT_EQ(&inj.stats(), &external);
}

TEST(FaultInjector, LogRecordsEventIdentity)
{
    FaultParams p;
    p.enabled = true;
    FaultInjector inj(p);
    inj.scheduleOneShot(FaultKind::BitFlip, 4, 3, 2, 0x8ULL);
    inj.beginCycle(4);
    inj.drawFlitFaults(3, 2);
    ASSERT_EQ(inj.log().size(), 1u);
    EXPECT_EQ(inj.log()[0].cycle, 4u);
    EXPECT_EQ(inj.log()[0].kind, FaultKind::BitFlip);
    EXPECT_EQ(inj.log()[0].router, 3);
    EXPECT_EQ(inj.log()[0].port, 2);
    EXPECT_EQ(inj.log()[0].flipMask, 0x8u);
}

TEST(FaultInjector, KindNames)
{
    EXPECT_STREQ(faultKindName(FaultKind::BitFlip), "bitflip");
    EXPECT_STREQ(faultKindName(FaultKind::Drop), "drop");
    EXPECT_STREQ(faultKindName(FaultKind::CreditLoss), "creditloss");
}

// -- link CRC ---------------------------------------------------------

TEST(WireChecksum, CatchesEverySingleBitPayloadUpset)
{
    FlitDesc d;
    d.uid = flitUid(7, 0);
    d.packet = 7;
    d.payload = expectedPayload(7, 0);
    WireFlit w = WireFlit::fromDesc(d);
    w.crc = wireChecksum(w);
    EXPECT_TRUE(wireChecksumOk(w));

    for (int bit = 0; bit < 64; ++bit) {
        WireFlit upset = w;
        upset.payload ^= 1ULL << bit;
        EXPECT_FALSE(wireChecksumOk(upset)) << "bit " << bit;
    }
}

TEST(WireChecksum, CoversEncodedMarkerAndVcTag)
{
    FlitDesc d;
    d.uid = flitUid(9, 0);
    d.packet = 9;
    d.payload = expectedPayload(9, 0);
    WireFlit w = WireFlit::fromDesc(d);
    w.crc = wireChecksum(w);

    WireFlit marker = w;
    marker.encoded = !marker.encoded;
    EXPECT_FALSE(wireChecksumOk(marker));

    WireFlit vc = w;
    vc.vc ^= 1;
    EXPECT_FALSE(wireChecksumOk(vc));
}

TEST(WireChecksum, PinnedValues)
{
    // Recorded from the bitwise implementation the table replaced: a
    // checksum change would reject every flit a peer stamped, and
    // CRC-consistency alone (the tests above) cannot see one.
    WireFlit plain;
    plain.payload = 0x0123456789ABCDEFULL;
    EXPECT_EQ(wireChecksum(plain), 0xE307E09Du);

    WireFlit encoded;
    encoded.payload = expectedPayload(7, 0);
    encoded.encoded = true;
    EXPECT_EQ(wireChecksum(encoded), 0xE245A605u);

    WireFlit vc1;
    vc1.payload = 0xFFFFFFFF00000000ULL;
    vc1.vc = 1;
    EXPECT_EQ(wireChecksum(vc1), 0xB963F01Du);
}

// -- snapshot CRC-32C --------------------------------------------------

/** Textbook bitwise CRC-32C (reflected Castagnoli polynomial), the
 *  definition the lookup table must reproduce. */
std::uint32_t
bitwiseCrc32c(const std::uint8_t *data, std::size_t len)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32c, StandardCheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(snap::crc32c(reinterpret_cast<const std::uint8_t *>(check),
                           9),
              0xE3069283u);
    EXPECT_EQ(snap::crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndOffset)
{
    Rng rng(0xC5C32C);
    std::vector<std::uint8_t> buf(64 + 16);
    for (std::uint8_t &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t start = 0; start < 16; ++start) {
        for (std::size_t len = 0; len <= 64; ++len) {
            EXPECT_EQ(snap::crc32c(buf.data() + start, len),
                      bitwiseCrc32c(buf.data() + start, len))
                << "start " << start << " length " << len;
        }
    }
}

// -- config parsing ---------------------------------------------------

TEST(FaultParamsFromConfig, DisabledByDefault)
{
    Config config;
    const FaultParams p = faultParamsFromConfig(config);
    EXPECT_FALSE(p.enabled);
    EXPECT_FALSE(p.anyRate());
    EXPECT_TRUE(p.protect);
}

TEST(FaultParamsFromConfig, ReadsAllKeys)
{
    Config config;
    config.set("fault_bitflip_rate", 0.25);
    config.set("fault_drop_rate", 0.125);
    config.set("fault_credit_loss_rate", 0.0625);
    config.set("fault_seed", std::int64_t{42});
    config.set("fault_recovery", false);
    config.set("fault_retry_timeout", std::int64_t{16});
    config.set("fault_watchdog_period", std::int64_t{128});

    const FaultParams p = faultParamsFromConfig(config);
    EXPECT_TRUE(p.enabled);
    EXPECT_DOUBLE_EQ(p.bitflipRate, 0.25);
    EXPECT_DOUBLE_EQ(p.dropRate, 0.125);
    EXPECT_DOUBLE_EQ(p.creditLossRate, 0.0625);
    EXPECT_EQ(p.seed, 42u);
    EXPECT_FALSE(p.protect);
    EXPECT_EQ(p.retryTimeout, 16u);
    EXPECT_EQ(p.watchdogPeriod, 128u);
}

TEST(FaultParamsFromConfig, SeedAloneEnablesInjector)
{
    // fault_seed= with no rates builds the (quiet) injector, so tests
    // and tools can schedule one-shot faults against it.
    Config config;
    config.set("fault_seed", std::int64_t{7});
    const FaultParams p = faultParamsFromConfig(config);
    EXPECT_TRUE(p.enabled);
    EXPECT_FALSE(p.anyRate());
}

} // namespace
} // namespace nox
