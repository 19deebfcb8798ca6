/**
 * @file
 * Negative paths of the snapshot container: every way a snapshot can
 * be wrong — flipped bytes, truncation, bad magic, unknown version,
 * missing sections, a huge count anywhere in the stream, or a
 * configuration that doesn't match the run — must throw a
 * SnapshotError instead of restoring garbage or dying on an
 * allocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "routers/factory.hpp"
#include "snapshot/snapshot.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

std::unique_ptr<Network>
buildNetwork(int buffer_depth = 4, int num_sources = -1,
             const FaultParams &faults = {})
{
    NetworkParams params;
    params.width = 4;
    params.height = 4;
    params.router.bufferDepth = buffer_depth;
    params.sinkBufferDepth = buffer_depth;
    params.faults = faults;
    auto net = makeNetwork(params, RouterArch::Nox);

    static const Mesh mesh(4, 4);
    static const DestinationPattern pattern(
        PatternKind::UniformRandom, mesh, 0.2);
    Rng seeder(0xBAD5EED);
    const NodeId n_sources =
        num_sources < 0 ? net->numNodes()
                        : static_cast<NodeId>(num_sources);
    for (NodeId n = 0; n < n_sources; ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, 0.05, 2, seeder.next()));
    }
    return net;
}

std::vector<std::uint8_t>
captureBytes(Network &net)
{
    return snap::encodeSnapshotFile(
        snap::captureNetwork(net, "test"));
}

/** Decode + restore into a fresh default network; used to prove a
 *  tampered image fails somewhere on that path. */
void
restoreFromBytes(const std::vector<std::uint8_t> &bytes,
                 const FaultParams &faults = {})
{
    const snap::SnapshotFile file =
        snap::decodeSnapshotFile(bytes.data(), bytes.size());
    auto net = buildNetwork(4, -1, faults);
    snap::restoreNetwork(*net, file);
}

/** E2E-transport-on fault config shared by the TRNS tamper tests. */
FaultParams
transportFaults()
{
    FaultParams faults;
    faults.enabled = true;
    faults.e2eTransport = true;
    return faults;
}

/** Offset of the last "TRNS" fourcc in @p payload — the transport
 *  component is the final piece of the NETW payload, so the last
 *  occurrence is its tag. */
std::size_t
findTrnsTag(const std::vector<std::uint8_t> &payload)
{
    static const std::uint8_t kTag[4] = {'T', 'R', 'N', 'S'};
    const auto it = std::find_end(payload.begin(), payload.end(),
                                  std::begin(kTag), std::end(kTag));
    if (it == payload.end()) {
        ADD_FAILURE() << "no TRNS tag in the NETW payload";
        return 0; // still in-bounds; the corrupt image must throw
    }
    return static_cast<std::size_t>(it - payload.begin());
}

class SnapshotReject : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto net = buildNetwork();
        net->run(200);
        bytes_ = captureBytes(*net);
        ASSERT_GT(bytes_.size(), 64u);
    }

    std::vector<std::uint8_t> bytes_;
};

TEST_F(SnapshotReject, IntactImageRestores)
{
    EXPECT_NO_THROW(restoreFromBytes(bytes_));
}

TEST_F(SnapshotReject, FlippedPayloadByteFailsCrc)
{
    // Flip one byte in the middle of the image (deep inside the NETW
    // payload) — the section CRC must catch it.
    std::vector<std::uint8_t> bad = bytes_;
    bad[bad.size() / 2] ^= 0x40;
    try {
        restoreFromBytes(bad);
        FAIL() << "corrupt image restored";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("CRC"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST_F(SnapshotReject, EveryTruncationPointRejected)
{
    // Chopping the image anywhere — header, section frame, payload,
    // trailing CRC — must throw, never crash or succeed.
    for (std::size_t len : {std::size_t{0}, std::size_t{4},
                            std::size_t{7}, std::size_t{12},
                            bytes_.size() / 4, bytes_.size() / 2,
                            bytes_.size() - 1}) {
        std::vector<std::uint8_t> bad(bytes_.begin(),
                                      bytes_.begin() +
                                          static_cast<long>(len));
        EXPECT_THROW(restoreFromBytes(bad), snap::SnapshotError)
            << "truncation to " << len << " bytes was accepted";
    }
}

TEST_F(SnapshotReject, BadMagicRejected)
{
    std::vector<std::uint8_t> bad = bytes_;
    bad[0] = 'X';
    EXPECT_THROW(restoreFromBytes(bad), snap::SnapshotError);
}

TEST_F(SnapshotReject, UnknownVersionRejected)
{
    // The version u32 sits right after the 8-byte magic.
    std::vector<std::uint8_t> bad = bytes_;
    bad[8] = 0xFF;
    try {
        restoreFromBytes(bad);
        FAIL() << "future-version image restored";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("version"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST_F(SnapshotReject, MissingSectionRejected)
{
    snap::SnapshotFile file = snap::decodeSnapshotFile(
        bytes_.data(), bytes_.size());
    file.sections.erase(file.sections.begin() + 1); // drop NETW
    const std::vector<std::uint8_t> bad =
        snap::encodeSnapshotFile(file);
    EXPECT_THROW(restoreFromBytes(bad), snap::SnapshotError);
}

TEST_F(SnapshotReject, ConfigMismatchRejected)
{
    // Same snapshot, different buffer depth: the construction
    // fingerprint must refuse the restore before any state moves.
    const snap::SnapshotFile file = snap::decodeSnapshotFile(
        bytes_.data(), bytes_.size());
    auto net = buildNetwork(/*buffer_depth=*/8);
    try {
        snap::restoreNetwork(*net, file);
        FAIL() << "mismatched configuration restored";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("configuration"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST_F(SnapshotReject, SourceCountMismatchRejected)
{
    // The fingerprint covers construction params, not the attached
    // sources; the NETW decoder still refuses a source-count drift.
    const snap::SnapshotFile file = snap::decodeSnapshotFile(
        bytes_.data(), bytes_.size());
    auto net = buildNetwork(4, /*num_sources=*/3);
    EXPECT_THROW(snap::restoreNetwork(*net, file),
                 snap::SnapshotError);
}

TEST(SnapshotRejectTransport, TamperedTransportTagRejected)
{
    // Corrupt the 'TRNS' component tag inside the decoded NETW
    // payload, then re-encode so the section CRC is fresh: the
    // container-level checks all pass and only the structural fourcc
    // check at the transport boundary can refuse the image.
    auto donor = buildNetwork(4, -1, transportFaults());
    donor->run(200);
    ASSERT_GT(donor->transport()->windowSize(), 0u);
    const std::vector<std::uint8_t> bytes = captureBytes(*donor);

    snap::SnapshotFile file =
        snap::decodeSnapshotFile(bytes.data(), bytes.size());
    for (snap::Section &sec : file.sections) {
        if (sec.tag != snap::kSectionNetwork)
            continue;
        sec.payload[findTrnsTag(sec.payload)] ^= 0x20; // 'T' -> 't'
    }
    const std::vector<std::uint8_t> bad =
        snap::encodeSnapshotFile(file);
    try {
        restoreFromBytes(bad, transportFaults());
        FAIL() << "tampered transport tag restored";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("TRNS"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST(SnapshotRejectTransport, TransportCountOverflowRejected)
{
    // Blow up the window-entry count (the u64 right after the TRNS
    // tag) under a fresh CRC: the reader must hit the end of the
    // payload and throw, never allocate its way into garbage.
    auto donor = buildNetwork(4, -1, transportFaults());
    donor->run(200);
    const std::vector<std::uint8_t> bytes = captureBytes(*donor);

    snap::SnapshotFile file =
        snap::decodeSnapshotFile(bytes.data(), bytes.size());
    for (snap::Section &sec : file.sections) {
        if (sec.tag != snap::kSectionNetwork)
            continue;
        const std::size_t tag = findTrnsTag(sec.payload);
        ASSERT_LT(tag + 12, sec.payload.size());
        sec.payload[tag + 11] = 0xFF; // count's top byte
    }
    EXPECT_THROW(
        restoreFromBytes(snap::encodeSnapshotFile(file),
                         transportFaults()),
        snap::SnapshotError);
}

TEST(SnapshotRejectTransport, TransportPresenceMismatchRejected)
{
    // A transport-enabled snapshot must not restore into a network
    // built without the transport: the construction fingerprint
    // refuses before any state moves.
    auto donor = buildNetwork(4, -1, transportFaults());
    donor->run(200);
    const std::vector<std::uint8_t> bytes = captureBytes(*donor);
    try {
        restoreFromBytes(bytes);
        FAIL() << "transport snapshot restored without transport";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("configuration"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST(SnapshotRejectActiveSet, RetiredComponentUnderAlwaysTickRejected)
{
    // The always-tick kernel retires nothing and binds no wakes, so a
    // cleared active-set flag in an always-tick image would silently
    // stop that router forever. Clear router 0's flag under a fresh
    // CRC: its 16 router flags, 16 NIC flags and the two absent-
    // observer markers sit just before the first router's ROUT tag.
    auto donor = buildNetwork();
    donor->run(200);
    ASSERT_EQ(donor->schedulingMode(), SchedulingMode::AlwaysTick);
    const std::vector<std::uint8_t> bytes = captureBytes(*donor);

    snap::SnapshotFile file =
        snap::decodeSnapshotFile(bytes.data(), bytes.size());
    static const std::uint8_t kTag[4] = {'R', 'O', 'U', 'T'};
    for (snap::Section &sec : file.sections) {
        if (sec.tag != snap::kSectionNetwork)
            continue;
        const auto it = std::search(sec.payload.begin(),
                                    sec.payload.end(), std::begin(kTag),
                                    std::end(kTag));
        ASSERT_NE(it, sec.payload.end());
        const auto flag = static_cast<std::size_t>(
            it - sec.payload.begin() - 2 - donor->numRouters() -
            donor->numNodes());
        ASSERT_EQ(sec.payload[flag], 1u);
        sec.payload[flag] = 0;
    }
    try {
        restoreFromBytes(snap::encodeSnapshotFile(file));
        FAIL() << "always-tick image with a retired router restored";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("always-tick"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

TEST(SnapshotRejectEnum, FlitClassOutOfRangeRejected)
{
    // A class byte past TrafficClass::Reply under a valid CRC used to
    // restore, and the packet's completion then indexed the per-class
    // latency array out of bounds. Queue one packet of class 9 at a
    // source NIC and capture it there: only the flit layout's enum
    // bound can refuse the image.
    auto donor = buildNetwork();
    donor->injectPacket(0, 5, 2, donor->now(),
                        static_cast<TrafficClass>(9));
    try {
        restoreFromBytes(captureBytes(*donor));
        FAIL() << "flit with traffic class 9 restored";
    } catch (const snap::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("enum byte 9"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
}

/** Set byte @p field of the first queued hard fault (0 = its kind,
 *  9 = the low byte of its router id) to @p value under a fresh CRC,
 *  and return the error the restore fails with ("" if it restores).
 *  The queued fault is a link kill still pending at the capture. */
std::string
restoreTamperedHardFault(std::size_t field, std::uint8_t value)
{
    FaultParams faults;
    faults.enabled = true;
    faults.hardLinkFaults = 1;
    faults.hardFaultCycle = 100000; // still queued at the capture
    auto donor = buildNetwork(4, -1, faults);
    donor->run(200);
    EXPECT_TRUE(donor->faultInjector()->hardFaultsPending());
    const std::vector<std::uint8_t> bytes = captureBytes(*donor);

    snap::SnapshotFile file =
        snap::decodeSnapshotFile(bytes.data(), bytes.size());
    static const std::uint8_t kTag[4] = {'F', 'I', 'N', 'J'};
    for (snap::Section &sec : file.sections) {
        if (sec.tag != snap::kSectionNetwork)
            continue;
        const auto it = std::find_end(sec.payload.begin(),
                                      sec.payload.end(),
                                      std::begin(kTag), std::end(kTag));
        if (it == sec.payload.end())
            return "no FINJ tag in the NETW payload";
        // The tag, the injector's cycle, an empty one-shot queue, the
        // hard-fault count, then the first queued fault.
        const auto at = static_cast<std::size_t>(it - sec.payload.begin());
        if (at + 28 + 17 > sec.payload.size() ||
            sec.payload[at + 20] != 1 ||
            sec.payload[at + 28] !=
                static_cast<std::uint8_t>(FaultKind::LinkDead))
            return "unexpected fault-injector layout";
        for (std::size_t b = at + 12; b < at + 20; ++b)
            if (sec.payload[b] != 0)
                return "one-shot queue not empty";
        sec.payload[at + 28 + field] = value;
    }
    try {
        restoreFromBytes(snap::encodeSnapshotFile(file), faults);
    } catch (const snap::SnapshotError &e) {
        return e.what();
    }
    return "";
}

TEST(SnapshotRejectEnum, SoftKindInHardFaultQueueRejected)
{
    // A queued link kill relabelled as a bit flip: applying it would
    // panic mid-run, so the load must refuse it.
    const std::string error = restoreTamperedHardFault(
        0, static_cast<std::uint8_t>(FaultKind::BitFlip));
    EXPECT_NE(error.find("soft fault kind"), std::string::npos)
        << "unexpected error: " << error;
}

TEST(SnapshotRejectFaults, HardFaultRouterOutOfRangeRejected)
{
    // A queued kill naming router 99 of a 4x4 mesh restored, then
    // panicked in the topology lookup when it fell due.
    const std::string error = restoreTamperedHardFault(9, 99);
    EXPECT_NE(error.find("router out of range"), std::string::npos)
        << "unexpected error: " << error;
}

/** A 3x3 NoX mesh with the variable-length restore sites populated:
 *  soft faults and a kill+heal churn wave (fault log), the E2E
 *  transport with a short timeout (window, timeout and ack deques,
 *  per-flow tables), the age watchdog and metrics windows. The wave
 *  has healed by the capture cycle, so a restore replays no kill and
 *  the sweep stays fast. */
std::unique_ptr<Network>
buildSweepNetwork()
{
    NetworkParams params;
    params.width = 3;
    params.height = 3;
    params.schedulingMode = SchedulingMode::ActivityDriven;
    params.faults.enabled = true;
    params.faults.bitflipRate = 0.002;
    params.faults.dropRate = 0.002;
    params.faults.e2eTransport = true;
    params.faults.e2eTimeout = 80;
    params.faults.packetAgeLimit = 400;
    params.faults.churnWaves = 1;
    params.faults.churnStart = 100;
    params.faults.churnHealAfter = 100;
    params.faults.churnLinks = 1;
    params.faults.churnRouters = 0;
    params.obs.metrics.enabled = true;
    params.obs.metrics.interval = 64;
    params.obs.metrics.heatmap = false;
    auto net = makeNetwork(params, RouterArch::Nox);

    static const Mesh mesh(3, 3);
    static const DestinationPattern pattern(
        PatternKind::UniformRandom, mesh, 0.2);
    Rng seeder(0xC0FFEE);
    for (NodeId n = 0; n < net->numNodes(); ++n) {
        net->addSource(std::make_unique<BernoulliSource>(
            n, pattern, 0.15, 2, seeder.next()));
    }
    return net;
}

/** Restore @p file into a fresh sweep network; a failure other than
 *  SnapshotError (bad_alloc, length_error, ...) is returned as text. */
std::string
restoreEscape(const snap::SnapshotFile &file)
{
    try {
        auto net = buildSweepNetwork();
        snap::restoreNetwork(*net, file);
    } catch (const snap::SnapshotError &) {
        return {};
    } catch (const std::exception &e) {
        return e.what();
    }
    return {};
}

/** The sweep's payload offsets are split into kSweepShards
 *  interleaved shards (one test each) so ctest runs them in
 *  parallel. */
constexpr std::size_t kSweepShards = 4;

class SnapshotRejectSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SnapshotRejectSweep, HugeCountAtEveryPayloadOffset)
{
    // Overwrite every 8-byte window of the NETW payload with a huge
    // value — so every count field in the stream is hit, whatever its
    // component — under a valid CRC (the decoded image is edited, as
    // if the section CRC were recomputed). Each restore must either
    // succeed (the window held a plain value) or throw SnapshotError;
    // an allocation sized by the corrupt count must never escape.
    auto donor = buildSweepNetwork();
    donor->run(300);
    ASSERT_GT(donor->transport()->windowSize(), 0u);
    ASSERT_GT(donor->stats().faults.e2eRetransmits, 0u);
    const std::vector<std::uint8_t> bytes = captureBytes(*donor);
    const snap::SnapshotFile intact =
        snap::decodeSnapshotFile(bytes.data(), bytes.size());
    ASSERT_EQ(restoreEscape(intact), "");

    std::size_t netw = intact.sections.size();
    for (std::size_t i = 0; i < intact.sections.size(); ++i)
        if (intact.sections[i].tag == snap::kSectionNetwork)
            netw = i;
    ASSERT_LT(netw, intact.sections.size());
    const std::vector<std::uint8_t> &payload =
        intact.sections[netw].payload;
    ASSERT_GT(payload.size(), 8u);

    int escapes = 0;
    for (const std::uint64_t huge :
         {~std::uint64_t{0}, std::uint64_t{1} << 40}) {
        for (std::size_t off = GetParam(); off + 8 <= payload.size();
             off += kSweepShards) {
            snap::SnapshotFile bad = intact;
            std::uint8_t *at = bad.sections[netw].payload.data() + off;
            for (int b = 0; b < 8; ++b)
                at[b] = static_cast<std::uint8_t>(huge >> (8 * b));
            const std::string escaped = restoreEscape(bad);
            if (!escaped.empty() && ++escapes <= 10) {
                ADD_FAILURE() << "count 0x" << std::hex << huge
                              << std::dec << " at NETW offset " << off
                              << " escaped as: " << escaped;
            }
        }
    }
    EXPECT_EQ(escapes, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, SnapshotRejectSweep,
                         ::testing::Range(std::size_t{0}, kSweepShards));

TEST(SnapshotRejectHeader, HugeSectionCountRejected)
{
    // The header's u32 section count, then a file that is nothing but
    // magic, version and a 0xFFFFFFFF count: both must be refused as
    // SnapshotError before any allocation is sized by the count.
    auto donor = buildSweepNetwork();
    donor->run(50);
    const std::vector<std::uint8_t> bytes = captureBytes(*donor);
    for (const std::uint32_t count :
         {0xFFFFFFFFu, 0x10000000u, 0x00010000u}) {
        std::vector<std::uint8_t> bad = bytes;
        for (int b = 0; b < 4; ++b)
            bad[12 + b] = static_cast<std::uint8_t>(count >> (8 * b));
        EXPECT_THROW(snap::decodeSnapshotFile(bad.data(), bad.size()),
                     snap::SnapshotError)
            << "section count " << count;
        bad.resize(16);
        EXPECT_THROW(snap::decodeSnapshotFile(bad.data(), bad.size()),
                     snap::SnapshotError)
            << "16-byte file, section count " << count;
    }
}

TEST_F(SnapshotReject, FileIoErrorsAreStructured)
{
    EXPECT_THROW(snap::loadSnapshotFile(
                     "/nonexistent-dir/nonexistent.snap"),
                 snap::SnapshotError);
    EXPECT_THROW(
        snap::writeSnapshotFileAtomic(
            "/nonexistent-dir/nonexistent.snap", bytes_, 2),
        snap::SnapshotError);
}

} // namespace
} // namespace nox
