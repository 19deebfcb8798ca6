/**
 * @file
 * The §2.4 decode-port rules under hard faults, driven on both kinds
 * of decode port: a NoX router input (killInput, purgeFlits) and a
 * NIC ejection sink (killAttached, purgeCondemned). Each case loads
 * the same wire values into both ports, applies one operation, and
 * pins the removed uid set, the credits the upstream sender receives
 * and what stays buffered.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "router_fixture.hpp"
#include "routers/nox_router.hpp"

namespace nox {
namespace {

using testing::SingleRouterHarness;

/** Constituent packet ids of one wire value (one id: uncoded). */
using Value = std::vector<PacketId>;

/** Buffered wire values of a port, head first. */
using Contents = std::vector<Value>;

constexpr int kPort = kPortWest;     // NoX input under test
constexpr NodeId kUpstream = 3;      // its upstream router (east out)
constexpr int kDepth = 4;

/** Buffered contents plus whether the head latches first. */
struct PortLoad
{
    Contents values;
    /** Evaluate the port once so its encoded head latches into the
     *  decode register (credited at once, like any latch). */
    bool latch = false;
};

enum class Op { Kill, Purge };

/** What one operation left behind. */
struct Outcome
{
    std::set<std::uint64_t> removed; ///< uids, de-duplicated
    int credits = 0;                 ///< received by the upstream sender
    Contents buffered;               ///< FIFO contents, head first
};

WireFlit
makeValue(const Value &packets)
{
    std::vector<FlitDesc> parts;
    for (PacketId p : packets) {
        FlitDesc d;
        d.uid = flitUid(p, 0);
        d.packet = p;
        d.src = 0;
        d.dest = SingleRouterHarness::eastNode();
        d.payload = expectedPayload(p, 0);
        parts.push_back(d);
    }
    return WireFlit::combine(parts);
}

Contents
contentsOf(const FlitFifo &fifo)
{
    Contents out;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        Value v;
        for (const FlitDesc &d : fifo.at(i).parts)
            v.push_back(d.packet);
        out.push_back(v);
    }
    return out;
}

std::set<std::uint64_t>
uidsOf(const std::vector<PacketId> &packets)
{
    std::set<std::uint64_t> out;
    for (PacketId p : packets)
        out.insert(flitUid(p, 0));
    return out;
}

/** Condemns exactly the flits of @p packets, wherever they sit. */
Router::FlitCondemned
condemning(std::vector<PacketId> packets)
{
    return [packets](NodeId, int, const FlitDesc &d) {
        for (PacketId p : packets) {
            if (d.packet == p)
                return true;
        }
        return false;
    };
}

/** Load @p load into the NoX router's west input, apply @p op. */
Outcome
runNoxPort(const PortLoad &load, Op op,
           const Router::FlitCondemned &condemned, bool *reg_valid)
{
    SingleRouterHarness h(RouterArch::Nox, kDepth);
    Router &dut = h.dut();
    Router &up = h.network().router(kUpstream);
    for (const Value &v : load.values)
        dut.inputFifo(kPort).push(makeValue(v));
    if (load.latch) {
        dut.evaluate(0);
        dut.commit();
        up.commit();
    }
    const int before = up.outputCredits(kPortEast);

    Outcome out;
    std::vector<FlitDesc> removed;
    if (op == Op::Kill)
        dut.killInput(kPort, removed);
    else
        dut.purgeFlits(condemned, removed);
    up.commit();
    for (const FlitDesc &d : removed)
        out.removed.insert(d.uid);
    out.credits = up.outputCredits(kPortEast) - before;
    out.buffered = contentsOf(dut.inputFifo(kPort));
    *reg_valid = static_cast<const NoxRouter &>(dut)
                     .decoder(kPort)
                     .registerValid();
    return out;
}

/** Load @p load into the centre NIC's sink, apply @p op. */
Outcome
runNicSink(const PortLoad &load, Op op,
           const Router::FlitCondemned &condemned, bool *idle)
{
    SingleRouterHarness h(RouterArch::Nox, kDepth);
    Router &router = h.dut();
    Nic &nic = h.network().nic(SingleRouterHarness::center());
    for (const Value &v : load.values) {
        nic.stageSinkFlit(makeValue(v));
        nic.commit();
    }
    if (load.latch) {
        nic.evaluateSink(0);
        nic.commit();
        router.commit();
    }
    const int before = router.outputCredits(kPortLocal);

    Outcome out;
    std::vector<FlitDesc> removed;
    if (op == Op::Kill)
        nic.killAttached(removed);
    else
        nic.purgeCondemned(condemned, removed);
    router.commit();
    for (const FlitDesc &d : removed)
        out.removed.insert(d.uid);
    out.credits = router.outputCredits(kPortLocal) - before;
    out.buffered = contentsOf(nic.sinkFifo());
    *idle = nic.quiescent(); // empty FIFO and decode register
    return out;
}

const Router::FlitCondemned kNothing = condemning({});

TEST(DecodePortRules, ChainOpenInRegisterWithEmptyFifo)
{
    // a^b latched; its continuation b never arrives.
    const PortLoad load{{{1, 2}}, true};
    for (Op op : {Op::Kill, Op::Purge}) {
        bool reg = true;
        const Outcome nox = runNoxPort(load, op, kNothing, &reg);
        EXPECT_EQ(nox.removed, uidsOf({1, 2}));
        EXPECT_EQ(nox.credits, 0); // the latch already freed its slot
        EXPECT_TRUE(nox.buffered.empty());
        EXPECT_FALSE(reg);

        bool idle = false;
        const Outcome nic = runNicSink(load, op, kNothing, &idle);
        EXPECT_EQ(nic.removed, uidsOf({1, 2}));
        EXPECT_EQ(nic.credits, 0);
        EXPECT_TRUE(nic.buffered.empty());
        EXPECT_TRUE(idle);
    }
}

TEST(DecodePortRules, CompleteChainThenOpenChain)
{
    // a^b, b closes the first chain; c^d^e, d^e is left open.
    const PortLoad load{{{1, 2}, {2}, {3, 4, 5}, {4, 5}}, false};
    const Contents complete{{1, 2}, {2}};

    bool reg = true;
    const Outcome nox_kill = runNoxPort(load, Op::Kill, kNothing, &reg);
    EXPECT_EQ(nox_kill.removed, uidsOf({3, 4, 5}));
    EXPECT_EQ(nox_kill.credits, 0); // the input link is gone
    EXPECT_EQ(nox_kill.buffered, complete);
    EXPECT_FALSE(reg);

    const Outcome nox_purge =
        runNoxPort(load, Op::Purge, kNothing, &reg);
    EXPECT_EQ(nox_purge.removed, uidsOf({3, 4, 5}));
    EXPECT_EQ(nox_purge.credits, 2); // one per dropped wire value
    EXPECT_EQ(nox_purge.buffered, complete);
    EXPECT_FALSE(reg);

    // The attached router died: the whole sink is lost, uncredited.
    bool idle = false;
    const Outcome nic_kill =
        runNicSink(load, Op::Kill, kNothing, &idle);
    EXPECT_EQ(nic_kill.removed, uidsOf({1, 2, 3, 4, 5}));
    EXPECT_EQ(nic_kill.credits, 0);
    EXPECT_TRUE(nic_kill.buffered.empty());
    EXPECT_TRUE(idle);

    const Outcome nic_purge =
        runNicSink(load, Op::Purge, kNothing, &idle);
    EXPECT_EQ(nic_purge.removed, uidsOf({3, 4, 5}));
    EXPECT_EQ(nic_purge.credits, 2);
    EXPECT_EQ(nic_purge.buffered, complete);
}

TEST(DecodePortRules, CondemnedConstituentDropsWholePort)
{
    // a^b^c latched, then b^c, c: a complete chain. Condemning a —
    // held only in the register — poisons every value of the chain.
    const PortLoad load{{{1, 2, 3}, {2, 3}, {3}}, true};
    const Router::FlitCondemned a = condemning({1});

    bool reg = false;
    const Outcome nox_kill = runNoxPort(load, Op::Kill, a, &reg);
    EXPECT_TRUE(nox_kill.removed.empty()); // complete chains survive
    EXPECT_EQ(nox_kill.credits, 0);
    EXPECT_EQ(nox_kill.buffered, (Contents{{2, 3}, {3}}));
    EXPECT_TRUE(reg);

    const Outcome nox_purge = runNoxPort(load, Op::Purge, a, &reg);
    EXPECT_EQ(nox_purge.removed, uidsOf({1, 2, 3}));
    EXPECT_EQ(nox_purge.credits, 2); // two buffered values dropped
    EXPECT_TRUE(nox_purge.buffered.empty());
    EXPECT_FALSE(reg);

    bool idle = false;
    const Outcome nic_kill = runNicSink(load, Op::Kill, a, &idle);
    EXPECT_EQ(nic_kill.removed, uidsOf({1, 2, 3}));
    EXPECT_EQ(nic_kill.credits, 0);
    EXPECT_TRUE(nic_kill.buffered.empty());
    EXPECT_TRUE(idle);

    const Outcome nic_purge = runNicSink(load, Op::Purge, a, &idle);
    EXPECT_EQ(nic_purge.removed, uidsOf({1, 2, 3}));
    EXPECT_EQ(nic_purge.credits, 2);
    EXPECT_TRUE(nic_purge.buffered.empty());
    EXPECT_TRUE(idle);
}

TEST(DecodePortRules, CleanPortUntouched)
{
    // A complete chain and a plain value; the condemned flit is
    // elsewhere in the network.
    const PortLoad load{{{1, 2}, {2}, {3}}, false};
    const Router::FlitCondemned other = condemning({9});

    for (Op op : {Op::Kill, Op::Purge}) {
        bool reg = true;
        const Outcome nox = runNoxPort(load, op, other, &reg);
        EXPECT_TRUE(nox.removed.empty());
        EXPECT_EQ(nox.credits, 0);
        EXPECT_EQ(nox.buffered, load.values);
        EXPECT_FALSE(reg);
    }

    bool idle = true;
    const Outcome nic_purge =
        runNicSink(load, Op::Purge, other, &idle);
    EXPECT_TRUE(nic_purge.removed.empty());
    EXPECT_EQ(nic_purge.credits, 0);
    EXPECT_EQ(nic_purge.buffered, load.values);
    EXPECT_FALSE(idle);

    const Outcome nic_kill = runNicSink(load, Op::Kill, other, &idle);
    EXPECT_EQ(nic_kill.removed, uidsOf({1, 2, 3}));
    EXPECT_EQ(nic_kill.credits, 0);
    EXPECT_TRUE(nic_kill.buffered.empty());
}

} // namespace
} // namespace nox
