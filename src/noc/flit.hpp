/**
 * @file
 * Flit representations.
 *
 * A FlitDesc is an original, un-coded flit as produced by a source
 * NIC. What actually travels on links and sits in input FIFOs is a
 * WireFlit: either a single FlitDesc (uncoded) or the bitwise XOR of
 * several colliding flits (NoX encoded form, §2.2 of the paper).
 *
 * The 64-bit payload is modelled faithfully — encoded WireFlits carry
 * the real XOR of their constituents' payloads, and decode asserts the
 * recovered bits match — while the `parts` vector carries simulation
 * bookkeeping (packet ids, destinations) that in hardware lives inside
 * those 64 bits.
 */

#ifndef NOX_NOC_FLIT_HPP
#define NOX_NOC_FLIT_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "noc/types.hpp"

namespace nox {

/** An original (un-coded) flit. */
struct FlitDesc
{
    std::uint64_t uid = 0;       ///< globally unique flit id
    PacketId packet = kInvalidPacket;
    std::uint32_t seq = 0;       ///< flit index within the packet
    std::uint32_t packetSize = 1; ///< total flits in the packet
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    std::uint64_t payload = 0;   ///< the 64 data bits on the wire
    Cycle createCycle = 0;       ///< when the packet entered the source
    Cycle injectCycle = 0;       ///< when this flit left the source
                                 ///< queue into the router
    TrafficClass cls = TrafficClass::Synthetic;
    std::uint8_t vc = 0;         ///< virtual channel (VC routers only)
    std::uint32_t flowSeq = 0;   ///< per-(src,dest) flow sequence
                                 ///< number (end-to-end ordering
                                 ///< check under fault injection)

    bool isHead() const { return seq == 0; }
    bool isTail() const { return seq + 1 == packetSize; }
    bool isMultiFlit() const { return packetSize > 1; }
};

/**
 * Small-buffer sequence of WireFlit constituents. Almost every wire
 * value is an uncoded single, kept inline so that copying it on each
 * hop allocates nothing. A second constituent (a NoX collision chain)
 * moves the whole list to an ordinary vector. Copies are independent
 * values; a moved-from sequence is left empty.
 */
class PartsVec
{
  public:
    using value_type = FlitDesc;

    PartsVec() = default;
    PartsVec(const PartsVec &) = default;
    PartsVec &operator=(const PartsVec &) = default;

    // Defaulted moves would leave the inline part behind.
    PartsVec(PartsVec &&other) noexcept
        : first_(other.first_), inline_(std::exchange(other.inline_, 0)),
          spill_(std::move(other.spill_))
    {
    }

    PartsVec &
    operator=(PartsVec &&other) noexcept
    {
        first_ = other.first_;
        inline_ = std::exchange(other.inline_, 0);
        spill_ = std::move(other.spill_);
        return *this;
    }

    void
    push_back(const FlitDesc &d)
    {
        if (spill_.empty()) {
            if (inline_ == 0) {
                first_ = d;
                inline_ = 1;
                return;
            }
            spill_.reserve(2); // one allocation for a 2-way chain
            spill_.push_back(first_);
        }
        spill_.push_back(d);
    }

    std::size_t size() const
    {
        return spill_.empty() ? inline_ : spill_.size();
    }
    bool empty() const { return size() == 0; }
    const FlitDesc *
    begin() const
    {
        return spill_.empty() ? &first_ : spill_.data();
    }
    const FlitDesc *end() const { return begin() + size(); }
    const FlitDesc &front() const { return *begin(); }

  private:
    FlitDesc first_{};
    std::uint8_t inline_ = 0;       ///< 1 while first_ holds a part
    std::vector<FlitDesc> spill_;   ///< every part, once there are two
};

/** Deterministic payload for (packet, seq), checkable at the sink. */
std::uint64_t expectedPayload(PacketId packet, std::uint32_t seq);

/** Most flits a packet may have: flitUid numbers them in 8 bits. */
inline constexpr int kMaxPacketFlits = 256;

/** Deterministic uid for (packet, seq), seq < kMaxPacketFlits. */
std::uint64_t flitUid(PacketId packet, std::uint32_t seq);

/** Inverse of flitUid: the owning packet id. */
inline PacketId
flitPacket(std::uint64_t uid)
{
    return uid >> 8;
}

/** Inverse of flitUid: the flit's sequence number in its packet. */
inline std::uint32_t
flitSeq(std::uint64_t uid)
{
    return static_cast<std::uint32_t>(uid & 0xffu);
}

/**
 * E2E-retransmission attempt encoding. Every retransmission of a
 * logical packet travels under a distinct *wire* packet id so that the
 * simultaneously-live copies never alias each other in FIFO dedup,
 * arrival counting or provenance: the attempt number (1..255) rides in
 * the packet id's high bits, leaving the low 48 bits as the logical
 * (base) id. Payloads and uids derive from the *encoded* id, so the
 * sink's integrity checks stay self-consistent per attempt.
 */
constexpr int kPacketAttemptShift = 48;
constexpr PacketId kPacketBaseMask =
    (PacketId{1} << kPacketAttemptShift) - 1;

/** Logical packet id with any attempt bits stripped. */
inline PacketId
basePacket(PacketId packet)
{
    return packet & kPacketBaseMask;
}

/** E2E retransmission attempt (0 = the original transmission). */
inline std::uint32_t
packetAttempt(PacketId packet)
{
    return static_cast<std::uint32_t>(packet >> kPacketAttemptShift);
}

/** Wire packet id for retransmission @p attempt of @p base. */
inline PacketId
attemptPacket(PacketId base, std::uint32_t attempt)
{
    return base |
           (static_cast<PacketId>(attempt) << kPacketAttemptShift);
}

/**
 * A value travelling on a link or stored in an input FIFO: one flit,
 * or the XOR superposition of several (NoX encoded form).
 */
struct WireFlit
{
    std::uint64_t payload = 0; ///< XOR of constituent payloads
    bool encoded = false;      ///< encoded marker bit on the link
    std::uint8_t vc = 0;       ///< virtual channel tag on the link
    std::uint32_t crc = 0;     ///< link-level checksum (set at send
                               ///< when fault protection is enabled)
    PartsVec parts;            ///< constituents (bookkeeping)

    /** Wrap a single flit. */
    static WireFlit fromDesc(const FlitDesc &d);

    /** Build the XOR superposition of @p inputs (size >= 1). */
    static WireFlit combine(const std::vector<FlitDesc> &inputs);

    bool valid() const { return !parts.empty(); }
    std::size_t fanin() const { return parts.size(); }
};

/**
 * CRC-32C over the bits a link physically carries: the 64-bit payload
 * plus the encoded marker and VC tag. Senders stamp WireFlit::crc with
 * this before link traversal (fault-protected links only); receivers
 * recompute and compare to detect in-flight corruption.
 */
std::uint32_t wireChecksum(const WireFlit &w);

/** True iff @p w's stored crc matches its current contents. */
inline bool
wireChecksumOk(const WireFlit &w)
{
    return w.crc == wireChecksum(w);
}

/** What went wrong (if anything) during one XOR decode step. */
enum class DecodeFault : std::uint8_t {
    None = 0,
    /** Structure is intact but the XOR of the received payloads does
     *  not reproduce the recovered flit's bits — in-flight payload
     *  corruption reached the decode chain. */
    PayloadMismatch = 1,
    /** prev is not next plus exactly one flit: a wire value was lost
     *  or duplicated mid-chain. No flit can be recovered. */
    Structural = 2,
};

/** Outcome of a fault-tolerant decode step. */
struct DecodeResult
{
    /** Recovered flit. On PayloadMismatch this carries the payload
     *  the hardware would actually compute (prev XOR next), i.e. the
     *  corruption propagates bit-faithfully. Empty on Structural. */
    std::optional<FlitDesc> flit;
    DecodeFault fault = DecodeFault::None;
};

/**
 * Fault-tolerant decode of one flit from two consecutively received
 * WireFlits: the unique constituent of @p prev absent from @p next
 * (the packet that won arbitration upstream, §2.2). Never panics;
 * integrity violations are reported in DecodeResult::fault.
 */
DecodeResult tryDecodeDiff(const WireFlit &prev, const WireFlit &next);

/**
 * Strict decode for fault-free operation: panics — and thereby
 * verifies payload integrity end-to-end — if prev is not next plus
 * exactly one flit, or if the XOR of the payloads does not equal the
 * recovered flit's payload.
 */
FlitDesc decodeDiff(const WireFlit &prev, const WireFlit &next);

} // namespace nox

#endif // NOX_NOC_FLIT_HPP
