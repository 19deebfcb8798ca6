#include "noc/flit.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "snapshot/io.hpp"

namespace nox {

std::uint64_t
expectedPayload(PacketId packet, std::uint32_t seq)
{
    return mix64(packet * 0x100ULL + seq + 1);
}

std::uint64_t
flitUid(PacketId packet, std::uint32_t seq)
{
    // Packet ids are dense from 1; 8 bits of sequence is plenty since
    // the largest packet in the paper's system is 9 flits.
    NOX_ASSERT(seq < kMaxPacketFlits,
               "flit sequence too large for uid encoding");
    return (packet << 8) | seq;
}

WireFlit
WireFlit::fromDesc(const FlitDesc &d)
{
    WireFlit w;
    w.payload = d.payload;
    w.encoded = false;
    w.vc = d.vc;
    w.parts.push_back(d);
    return w;
}

WireFlit
WireFlit::combine(const std::vector<FlitDesc> &inputs)
{
    NOX_ASSERT(!inputs.empty(), "combine needs at least one flit");
    WireFlit w;
    for (const auto &d : inputs) {
        w.payload ^= d.payload;
        w.parts.push_back(d);
    }
    w.encoded = inputs.size() > 1;
    return w;
}

std::uint32_t
wireChecksum(const WireFlit &w)
{
    // CRC-32C over the 10 bytes a link carries: the 64-bit payload in
    // little-endian order, then the sideband encoded marker and VC
    // tag. It runs twice per hop on every fault-protected link (stamp
    // at dispatch, verify at receive), so it goes through the table-
    // driven snap::crc32c shared with the snapshot file framing.
    std::uint8_t bytes[10];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(w.payload >> (8 * i));
    bytes[8] = static_cast<std::uint8_t>(w.encoded ? 1 : 0);
    bytes[9] = w.vc;
    return snap::crc32c(bytes, sizeof(bytes));
}

DecodeResult
tryDecodeDiff(const WireFlit &prev, const WireFlit &next)
{
    DecodeResult r;
    if (prev.parts.size() != next.parts.size() + 1) {
        r.fault = DecodeFault::Structural;
        return r;
    }

    const FlitDesc *found = nullptr;
    for (const auto &p : prev.parts) {
        const bool in_next =
            std::any_of(next.parts.begin(), next.parts.end(),
                        [&](const FlitDesc &q) { return q.uid == p.uid; });
        if (!in_next) {
            if (found) {
                r.fault = DecodeFault::Structural;
                return r;
            }
            found = &p;
        }
    }
    if (!found) {
        r.fault = DecodeFault::Structural;
        return r;
    }

    // Integrity: the XOR of the two received values must reproduce the
    // recovered flit's bits exactly — this is the paper's decoding
    // property (A^B^C) ^ (B^C) == A, checked on real payload bits. On
    // mismatch the hardware would still compute prev^next, so that is
    // what the recovered flit carries (corruption propagates instead
    // of being silently repaired from bookkeeping).
    r.flit = *found;
    const std::uint64_t recovered = prev.payload ^ next.payload;
    if (recovered != found->payload) {
        r.flit->payload = recovered;
        r.fault = DecodeFault::PayloadMismatch;
    }
    return r;
}

FlitDesc
decodeDiff(const WireFlit &prev, const WireFlit &next)
{
    const DecodeResult r = tryDecodeDiff(prev, next);
    NOX_ASSERT(r.fault != DecodeFault::Structural,
               "decode requires |prev| == |next| + 1 with one unmatched "
               "flit, got ",
               prev.parts.size(), " and ", next.parts.size());
    NOX_ASSERT(r.fault != DecodeFault::PayloadMismatch,
               "XOR decode payload mismatch for packet ",
               r.flit->packet);
    return *r.flit;
}

} // namespace nox
