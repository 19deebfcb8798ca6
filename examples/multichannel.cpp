/**
 * @file
 * PhysicalChannelGroup demo (§2.8): drive a request/reply pair of
 * physical networks in lockstep through the library API, the way the
 * paper's application evaluation isolates coherence classes.
 *
 *   $ ./multichannel [arch=nox] [channels=2] [packets=2000]
 */

#include <iostream>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/channel_group.hpp"

int
main(int argc, char **argv)
{
    using namespace nox;

    Config config;
    config.parseArgs(argc, argv);
    const RouterArch arch =
        parseArch(config.getString("arch", "nox").c_str());
    const int channels = config.getInt("channels", 2, 1);
    const int packets = config.getInt("packets", 2000, 0);

    NetworkParams params;
    PhysicalChannelGroup group(params, arch, channels);

    std::cout << "driving " << channels << " parallel "
              << archName(arch)
              << " networks with a request/reply pattern...\n";

    // A toy coherence-ish exchange: random requesters send 1-flit
    // requests; each is answered by a 9-flit reply from the "home".
    Rng rng(42);
    int sent = 0;
    while (sent < packets || group.packetsInFlight() > 0) {
        if (sent < packets && rng.nextBernoulli(0.6)) {
            const NodeId a = static_cast<NodeId>(rng.nextBounded(64));
            NodeId b = a;
            while (b == a)
                b = static_cast<NodeId>(rng.nextBounded(64));
            group.injectPacket(a, b, 1, TrafficClass::Request);
            group.injectPacket(b, a, 9, TrafficClass::Reply);
            sent += 2;
        }
        group.step();
        if (group.now() > 200000)
            break; // safety
    }

    Table t({"metric", "value"});
    t.addRow({"cycles", std::to_string(group.now())});
    t.addRow({"packets injected",
              std::to_string(group.packetsInjected())});
    t.addRow({"packets delivered",
              std::to_string(group.packetsEjected())});
    for (int c = 0; c < channels; ++c) {
        t.addRow({"channel " + std::to_string(c) + " packets",
                  std::to_string(
                      group.channel(c).stats().packetsEjected)});
    }
    t.addRow({"avg latency [cycles]",
              Table::num(group.mergedLatency().mean(), 2)});
    t.addRow({"link flits",
              std::to_string(group.totalEnergyEvents().linkFlits)});
    t.print(std::cout);

    return group.packetsInFlight() == 0 ? 0 : 1;
}
