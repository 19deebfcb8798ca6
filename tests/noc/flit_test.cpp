/** @file Unit tests for flit representations and XOR coding. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "noc/flit.hpp"

namespace nox {
namespace {

FlitDesc
makeFlit(PacketId packet, std::uint32_t seq = 0,
         std::uint32_t size = 1)
{
    FlitDesc d;
    d.uid = flitUid(packet, seq);
    d.packet = packet;
    d.seq = seq;
    d.packetSize = size;
    d.src = 0;
    d.dest = 1;
    d.payload = expectedPayload(packet, seq);
    return d;
}

TEST(Flit, HeadTailFlags)
{
    EXPECT_TRUE(makeFlit(1, 0, 1).isHead());
    EXPECT_TRUE(makeFlit(1, 0, 1).isTail());
    EXPECT_FALSE(makeFlit(1, 0, 1).isMultiFlit());

    const FlitDesc head = makeFlit(2, 0, 3);
    const FlitDesc body = makeFlit(2, 1, 3);
    const FlitDesc tail = makeFlit(2, 2, 3);
    EXPECT_TRUE(head.isHead());
    EXPECT_FALSE(head.isTail());
    EXPECT_TRUE(head.isMultiFlit());
    EXPECT_FALSE(body.isHead());
    EXPECT_FALSE(body.isTail());
    EXPECT_FALSE(tail.isHead());
    EXPECT_TRUE(tail.isTail());
}

TEST(Flit, UidsUniquePerPacketAndSeq)
{
    EXPECT_NE(flitUid(1, 0), flitUid(1, 1));
    EXPECT_NE(flitUid(1, 0), flitUid(2, 0));
    EXPECT_EQ(flitUid(3, 2), flitUid(3, 2));
}

TEST(Flit, ExpectedPayloadDistinct)
{
    EXPECT_NE(expectedPayload(1, 0), expectedPayload(1, 1));
    EXPECT_NE(expectedPayload(1, 0), expectedPayload(2, 0));
}

TEST(WireFlit, FromDescIsUncoded)
{
    const FlitDesc d = makeFlit(1);
    const WireFlit w = WireFlit::fromDesc(d);
    EXPECT_FALSE(w.encoded);
    EXPECT_EQ(w.fanin(), 1u);
    EXPECT_EQ(w.payload, d.payload);
}

TEST(WireFlit, CombineTwoIsEncodedXor)
{
    const FlitDesc a = makeFlit(1);
    const FlitDesc b = makeFlit(2);
    const WireFlit w = WireFlit::combine({a, b});
    EXPECT_TRUE(w.encoded);
    EXPECT_EQ(w.fanin(), 2u);
    EXPECT_EQ(w.payload, a.payload ^ b.payload);
}

TEST(WireFlit, CombineSingleIsUncoded)
{
    const WireFlit w = WireFlit::combine({makeFlit(1)});
    EXPECT_FALSE(w.encoded);
}

/** Constituent uids of @p w, in order. */
std::vector<std::uint64_t>
uidsOf(const WireFlit &w)
{
    std::vector<std::uint64_t> out;
    for (const FlitDesc &d : w.parts)
        out.push_back(d.uid);
    return out;
}

/** An uncoded value and a 5-way encoded one (spilled parts). */
std::vector<WireFlit>
valueKinds()
{
    return {WireFlit::fromDesc(makeFlit(1)),
            WireFlit::combine({makeFlit(1), makeFlit(2), makeFlit(3),
                               makeFlit(4), makeFlit(5)})};
}

TEST(WireFlitValue, CopyAndSelfAssignmentKeepEveryPart)
{
    for (const WireFlit &orig : valueKinds()) {
        WireFlit copy(orig);
        EXPECT_EQ(uidsOf(copy), uidsOf(orig));
        EXPECT_EQ(copy.payload, orig.payload);
        EXPECT_EQ(copy.encoded, orig.encoded);

        WireFlit assigned = WireFlit::fromDesc(makeFlit(9));
        assigned = orig;
        EXPECT_EQ(uidsOf(assigned), uidsOf(orig));

        WireFlit &alias = copy;
        copy = alias;
        EXPECT_EQ(uidsOf(copy), uidsOf(orig));
    }
}

TEST(WireFlitValue, MoveCarriesPartsAndLeavesSourceEmpty)
{
    for (const WireFlit &orig : valueKinds()) {
        WireFlit src(orig);
        WireFlit moved(std::move(src));
        EXPECT_EQ(uidsOf(moved), uidsOf(orig));
        EXPECT_TRUE(src.parts.empty());
        EXPECT_FALSE(src.valid());

        // Move-assign over both an uncoded and an encoded target.
        for (const WireFlit &target : valueKinds()) {
            WireFlit dst(target);
            WireFlit from(orig);
            dst = std::move(from);
            EXPECT_EQ(uidsOf(dst), uidsOf(orig));
            EXPECT_TRUE(from.parts.empty());
        }

        // A moved-from value is reusable.
        src.parts.push_back(makeFlit(7));
        EXPECT_EQ(uidsOf(src), std::vector<std::uint64_t>{flitUid(7, 0)});
    }
}

TEST(WireFlitValue, CopiesAreIndependent)
{
    for (const WireFlit &orig : valueKinds()) {
        WireFlit a(orig);
        WireFlit b(a);
        b.parts.push_back(makeFlit(6));
        EXPECT_EQ(uidsOf(a), uidsOf(orig));
        EXPECT_EQ(b.fanin(), orig.fanin() + 1);
        EXPECT_EQ(b.parts.front().uid, orig.parts.front().uid);
        EXPECT_EQ(b.parts.end()[-1].uid, flitUid(6, 0));

        WireFlit c = WireFlit::fromDesc(makeFlit(8));
        c = a;
        a = WireFlit::fromDesc(makeFlit(9));
        EXPECT_EQ(uidsOf(c), uidsOf(orig));
    }
}

TEST(Decode, PaperProperty)
{
    // (A ^ B ^ C) ^ (B ^ C) == A — the paper's §2.2 identity.
    const FlitDesc a = makeFlit(1);
    const FlitDesc b = makeFlit(2);
    const FlitDesc c = makeFlit(3);
    const WireFlit e1 = WireFlit::combine({a, b, c});
    const WireFlit e2 = WireFlit::combine({b, c});
    const FlitDesc got = decodeDiff(e1, e2);
    EXPECT_EQ(got.packet, a.packet);
    EXPECT_EQ(got.payload, a.payload);
}

TEST(Decode, FinalPairAgainstUncoded)
{
    const FlitDesc b = makeFlit(2);
    const FlitDesc c = makeFlit(3);
    const WireFlit e2 = WireFlit::combine({b, c});
    const WireFlit e3 = WireFlit::fromDesc(c);
    const FlitDesc got = decodeDiff(e2, e3);
    EXPECT_EQ(got.packet, b.packet);
}

TEST(Decode, FiveWayChainRecoversAllInOrder)
{
    // A full 5-input collision chain, decoded pairwise.
    std::vector<FlitDesc> flits;
    for (PacketId p = 1; p <= 5; ++p)
        flits.push_back(makeFlit(p));

    std::vector<WireFlit> chain;
    for (std::size_t i = 0; i < flits.size(); ++i) {
        chain.push_back(WireFlit::combine(
            {flits.begin() + static_cast<long>(i), flits.end()}));
    }

    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
        const FlitDesc got = decodeDiff(chain[i], chain[i + 1]);
        EXPECT_EQ(got.packet, flits[i].packet);
        EXPECT_EQ(got.payload, flits[i].payload);
    }
    EXPECT_FALSE(chain.back().encoded);
}

TEST(DecodeDeathTest, MismatchedSizesAbort)
{
    const WireFlit e1 =
        WireFlit::combine({makeFlit(1), makeFlit(2), makeFlit(3)});
    const WireFlit e3 = WireFlit::fromDesc(makeFlit(3));
    EXPECT_DEATH((void)decodeDiff(e1, e3), "decode requires");
}

TEST(DecodeDeathTest, CorruptedPayloadDetected)
{
    const FlitDesc a = makeFlit(1);
    const FlitDesc b = makeFlit(2);
    WireFlit e1 = WireFlit::combine({a, b});
    e1.payload ^= 0x1; // single bit flip on the link
    const WireFlit e2 = WireFlit::fromDesc(b);
    EXPECT_DEATH((void)decodeDiff(e1, e2), "payload mismatch");
}

} // namespace
} // namespace nox
