/**
 * @file
 * Offline forensics round trip: a flight-recorder dump written by a
 * live run must reconstruct, from the dump alone, the same per-packet
 * latencies the simulator reported online — and the reconstruction
 * must agree with the latency-provenance observer's aggregates.
 *
 * The ring is sized so the whole run fits (no wrap): every injected
 * packet's PacketCreate and PacketDone survive, so every delivered
 * packet yields a complete, consistent timeline.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "noc/network.hpp"
#include "obs/flight_analysis.hpp"
#include "obs/provenance.hpp"
#include "routers/factory.hpp"
#include "traffic/bernoulli_source.hpp"
#include "traffic/patterns.hpp"

namespace nox {
namespace {

constexpr Cycle kWarmup = 200;
constexpr Cycle kMeasure = 600;
constexpr Cycle kDrainLimit = 20000;
constexpr std::uint64_t kSeed = 0xD07;

class FlightAnalysisRoundTrip : public ::testing::Test
{
  protected:
    std::string path_;

    void
    SetUp() override
    {
        // One file per test: ctest runs each test in its own process,
        // in parallel, and SetUp/TearDown remove the file.
        path_ = ::testing::TempDir() + "/nox_flight_rt_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".jsonl";
        std::remove(path_.c_str());
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::unique_ptr<Network>
    buildNetwork(RouterArch arch)
    {
        NetworkParams params;
        params.width = 8;
        params.height = 8;
        params.obs.trace.enabled = true;
        params.obs.trace.capacity = 1u << 20; // no wrap: full history
        params.obs.trace.chromePath = "";
        params.obs.trace.flightPath = path_;
        params.obs.prov.enabled = true;
        auto net = makeNetwork(params, arch);

        static const Mesh mesh(8, 8);
        static const DestinationPattern pat(
            PatternKind::UniformRandom, mesh, 0.2);
        Rng seeder(kSeed);
        for (NodeId n = 0; n < net->numNodes(); ++n) {
            net->addSource(std::make_unique<BernoulliSource>(
                n, pat, 0.06, 3, seeder.next()));
        }
        net->setMeasurementWindow(kWarmup, kWarmup + kMeasure);
        return net;
    }
};

TEST_F(FlightAnalysisRoundTrip, DumpReproducesOnlineLatencies)
{
    for (RouterArch arch :
         {RouterArch::NonSpeculative, RouterArch::Nox}) {
        SCOPED_TRACE(archName(arch));
        auto net = buildNetwork(arch);
        net->run(kWarmup + kMeasure);
        net->setSourcesEnabled(false);
        ASSERT_TRUE(net->drain(kDrainLimit));
        ASSERT_TRUE(net->tracer()->triggerFlightDump("test", {}));

        FlightDump dump;
        std::string error;
        ASSERT_TRUE(loadFlightDump(path_, dump, error)) << error;
        EXPECT_EQ(dump.reason, "test");
        ASSERT_FALSE(dump.events.empty());
        // The ring never wrapped, so the dump spans the whole run.
        EXPECT_LE(dump.firstCycle, 1u);

        const auto timelines = buildTimelines(dump);
        std::uint64_t complete = 0;
        std::uint64_t measured_packets = 0;
        std::uint64_t measured_cycles = 0;
        for (const PacketTimeline &t : timelines) {
            ASSERT_TRUE(t.haveCreate) << "packet " << t.packet;
            if (!t.haveDone)
                continue; // written off / undelivered (none here)
            ++complete;
            // The offline reconstruction must match what the
            // simulator reported online for this exact packet.
            EXPECT_TRUE(t.consistent())
                << "packet " << t.packet << ": reconstructed "
                << t.latency() << " != online "
                << t.reportedLatency;
            // Movement events must exist and be ordered.
            ASSERT_FALSE(t.hops.empty()) << "packet " << t.packet;
            for (std::size_t i = 1; i < t.hops.size(); ++i) {
                EXPECT_LE(t.hops[i - 1].cycle, t.hops[i].cycle)
                    << "packet " << t.packet;
            }
            if (t.createCycle >= kWarmup &&
                t.createCycle < kWarmup + kMeasure) {
                ++measured_packets;
                measured_cycles += t.latency();
            }
        }
        EXPECT_EQ(complete, net->stats().packetsEjected);
        EXPECT_EQ(complete, timelines.size());

        // Cross-check against the online provenance aggregates: the
        // dump-side sum over measured packets reassembles the exact
        // total the span builder conserved online.
        const LatencyProvenance *prov = net->provenance();
        ASSERT_NE(prov, nullptr);
        EXPECT_EQ(prov->conservationViolations(), 0u);
        EXPECT_EQ(measured_packets, prov->total().packets);
        EXPECT_EQ(measured_cycles, prov->total().totalCycles);

        // Slow-packet forensics: top-K is sorted, bounded, and every
        // entry names a cause and a stall window inside the packet's
        // lifetime.
        const auto slow = slowestPackets(dump, timelines, 5);
        ASSERT_LE(slow.size(), 5u);
        ASSERT_FALSE(slow.empty());
        for (std::size_t i = 1; i < slow.size(); ++i)
            EXPECT_GE(slow[i - 1].latency, slow[i].latency);
        for (const SlowPacket &s : slow) {
            EXPECT_FALSE(s.cause.empty());
            EXPECT_LE(s.stallStart, s.stallEnd);
        }

        std::remove(path_.c_str());
    }
}

TEST_F(FlightAnalysisRoundTrip, MissingFileReportsError)
{
    FlightDump dump;
    std::string error;
    EXPECT_FALSE(
        loadFlightDump(path_ + ".does-not-exist", dump, error));
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace nox
