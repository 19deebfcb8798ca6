/**
 * @file
 * Cycle-by-cycle walkthrough of the paper's timing examples
 * (Figures 2, 3 and 7): packet A arrives at cycle 0; packets B and C
 * collide at cycle 2; all are destined for the same output.
 *
 * For each router architecture the per-cycle link activity is shown;
 * for NoX the downstream decode (Figure 3) is replayed as well. This
 * is the fastest way to *see* the XOR-coded crossbar at work.
 */

#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "noc/network.hpp"
#include "noc/xor_decoder.hpp"
#include "routers/factory.hpp"

namespace {

using namespace nox;

constexpr NodeId kCenter = 4;   // (1,1) in the 3x3 harness mesh
constexpr NodeId kEast = 5;

FlitDesc
makeFlit(PacketId packet, char tag)
{
    FlitDesc d;
    d.uid = flitUid(packet, 0);
    d.packet = packet;
    d.packetSize = 1;
    d.src = 0;
    d.dest = kEast;
    d.payload = expectedPayload(packet, 0);
    (void)tag;
    return d;
}

std::string
describe(const WireFlit &flit)
{
    auto name = [](PacketId p) {
        return std::string(1, static_cast<char>('A' + p - 1));
    };
    if (!flit.encoded)
        return name(flit.parts.front().packet);
    std::string s;
    for (const FlitDesc &d : flit.parts)
        s += (s.empty() ? "" : "^") + name(d.packet);
    return s + " (encoded)";
}

void
walk(RouterArch arch, std::vector<WireFlit> *captured)
{
    NetworkParams params;
    params.width = 3;
    params.height = 3;
    params.router.bufferDepth = 8;
    auto net = makeNetwork(params, arch);
    Router &dut = net->router(kCenter);
    Router &east = net->router(kEast);

    std::cout << "--- " << archName(arch) << " ---\n";
    const FlitDesc a = makeFlit(1, 'A');
    const FlitDesc b = makeFlit(2, 'B');
    const FlitDesc c = makeFlit(3, 'C');
    dut.inputFifo(kPortNorth).push(WireFlit::fromDesc(a));

    std::uint64_t wasted_before = 0;
    for (Cycle t = 0; t < 8; ++t) {
        if (t == 2) {
            dut.inputFifo(kPortSouth).push(WireFlit::fromDesc(b));
            dut.inputFifo(kPortWest).push(WireFlit::fromDesc(c));
        }
        dut.evaluate(t);
        dut.commit();
        east.commit();
        net->nic(kCenter).commit();

        std::cout << "  cycle " << t << ": output = ";
        const std::uint64_t wasted = dut.energy().linkWastedCycles;
        FlitFifo &east_in = east.inputFifo(kPortWest);
        if (!east_in.empty()) {
            WireFlit f = east_in.pop();
            dut.stageCredit(kPortEast);
            std::cout << describe(f);
            if (captured)
                captured->push_back(f);
        } else if (wasted > wasted_before) {
            std::cout << "<invalid value driven: wasted cycle>";
        } else {
            std::cout << "idle";
        }
        wasted_before = wasted;
        std::cout << '\n';
    }
    std::cout << '\n';
}

void
decodeWalkthrough(const std::vector<WireFlit> &received)
{
    std::cout << "--- NoX downstream input port decode (Figure 3) "
                 "---\n";
    FlitFifo fifo(8);
    XorDecoder decoder;
    std::size_t next = 0;
    for (Cycle t = 0; t < 10; ++t) {
        if (next < received.size())
            fifo.push(WireFlit(received[next++]));
        const DecodeView v = decoder.view(fifo);
        std::cout << "  cycle " << t << ": ";
        if (v.latchBubble) {
            std::cout << "encoded value latched into decode register "
                         "(no switch request)";
            decoder.latch(fifo);
        } else if (v.presented) {
            std::cout << "presents "
                      << static_cast<char>('A' + v.presented->packet -
                                           1);
            if (v.decodedByXor)
                std::cout << "  [register ^ FIFO head]";
            decoder.accept(fifo);
        } else {
            std::cout << "idle";
        }
        std::cout << '\n';
        if (!decoder.registerValid() && fifo.empty() &&
            next >= received.size())
            break;
    }
    std::cout << '\n';
}

} // namespace

int
main()
{
    using namespace nox;

    std::cout
        << "The paper's contention example: A arrives at cycle 0;\n"
        << "B and C arrive simultaneously at cycle 2; one output.\n\n";

    std::vector<WireFlit> nox_link;
    walk(RouterArch::NonSpeculative, nullptr);
    walk(RouterArch::SpecFast, nullptr);
    walk(RouterArch::SpecAccurate, nullptr);
    walk(RouterArch::Nox, &nox_link);
    decodeWalkthrough(nox_link);

    std::cout << "Note how the NoX link carries useful bits every "
                 "cycle (B^C is decoded\ndownstream), while the "
                 "speculative routers burn a cycle driving an\n"
                 "invalid value, and Spec-Fast loses another to a "
                 "dead reservation.\n";
    return 0;
}
