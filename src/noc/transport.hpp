/**
 * @file
 * End-to-end exactly-once delivery transport at the NICs.
 *
 * The link layer (CRC + nack/retry, credit watchdog) recovers from
 * *transient* faults, but a fail-stop link or router kill throws away
 * every flit buffered on the dead path — without help those packets
 * are gone (packetsLostHard). The E2E transport closes that gap the
 * way real NoCs do: the source NIC keeps each packet in an in-flight
 * window until the destination's end-to-end acknowledgement retires
 * it, retransmitting on timeout with a bounded retry budget, while the
 * destination suppresses duplicates so every accepted packet is
 * delivered exactly once.
 *
 * Wire identity. Each retransmission attempt travels under a distinct
 * wire packet id (attemptPacket(base, n), see flit.hpp), with payloads
 * and flit uids derived from that encoded id. Simultaneously-live
 * copies therefore never alias each other anywhere in the network; the
 * *logical* packet is the base id, and latency is measured from the
 * original create cycle, which every attempt's flits carry.
 *
 * Ack channel. E2E acks are modelled as a reliable out-of-band channel
 * with a fixed delay (FaultParams::e2eAckDelay) rather than as
 * in-network packets. This is a deliberate abstraction: the protocol
 * machinery under test is the *data-path* loss/duplicate handling, and
 * a lossy ack channel only converts acks into extra timeouts, which
 * the timeout path already exercises.
 *
 * Duplicate suppression. The destination tracks delivered packets per
 * (src,dest) flow as a watermark plus a short sorted list of
 * out-of-order flow sequence numbers — bounded by the window, exactly
 * like a hardware reorder filter — in a FlowTable slot found by
 * index. Every flit of an already-delivered (or abandoned) logical
 * packet is dropped at the NIC door before it can touch arrival
 * state, making a second completion structurally impossible.
 */

#ifndef NOX_NOC_TRANSPORT_HPP
#define NOX_NOC_TRANSPORT_HPP

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "noc/flit.hpp"
#include "noc/flow_table.hpp"
#include "noc/types.hpp"
#include "snapshot/io.hpp"

namespace nox {

/** Source-side window state for one logical (base-id) packet. */
struct TransportEntry
{
    NodeId src = kInvalidNode;
    NodeId dest = kInvalidNode;
    std::uint32_t numFlits = 1;
    TrafficClass cls = TrafficClass::Synthetic;
    std::uint32_t flowSeq = 0;   ///< per-(src,dest) sequence number
    Cycle origCreate = 0;        ///< create cycle of attempt 0
    std::uint32_t attempt = 0;   ///< highest attempt sent so far
    std::uint32_t retries = 0;   ///< timeout-triggered resends
    bool delivered = false;      ///< completed at dest, ack pending
};

/**
 * Callbacks the transport raises while sweeping its window. The
 * network implements this: resends re-enter the source queue, acks
 * and failures update statistics and per-packet bookkeeping.
 */
class TransportListener
{
  public:
    virtual ~TransportListener() = default;

    /**
     * Timeout fired: send attempt `e.attempt` (already incremented)
     * of @p base. Return false when the resend is impossible right
     * now (source NIC dead, destination unreachable) — the entry
     * stays armed and the next timeout retries again, so a packet
     * survives any outage shorter than its retry budget.
     */
    virtual bool onE2eResend(PacketId base,
                             const TransportEntry &e) = 0;

    /** The delayed E2E ack arrived; the window entry is retired. */
    virtual void onE2eAck(PacketId base, const TransportEntry &e) = 0;

    /** Retry budget exhausted; the packet is abandoned. */
    virtual void onE2eFail(PacketId base, const TransportEntry &e) = 0;
};

/**
 * The per-network transport instance (one object serves every NIC —
 * state is keyed by packet and flow, and the simulator's global view
 * makes the src/dest split purely notational).
 *
 * Timeout and ack wakeups live in monotone deques (the due cycle of a
 * pushed event never precedes an earlier push), so each sweep pops
 * only due events; retired or superseded entries are skipped lazily
 * via the window lookup.
 */
class E2eTransport
{
  public:
    /** @p nodes sizes the per-flow duplicate filters. */
    E2eTransport(int nodes, Cycle timeout, std::uint32_t retry_limit,
                 Cycle ack_delay);

    /** A new logical packet entered the network (attempt 0). */
    void onInject(const FlitDesc &head, Cycle now);

    /**
     * Destination-door check: true when @p d belongs to a logical
     * packet this flow has already completed (or abandoned) and must
     * be dropped before touching arrival state.
     */
    bool duplicateFlit(const FlitDesc &d) const;

    /**
     * All flits of wire packet @p wire_packet arrived. Returns true
     * exactly once per logical packet — on that first completion the
     * flow filter is marked and the ack timer armed; @p attempts_out
     * reports how many wire copies exist (highest attempt number),
     * so the caller can scrub stale per-attempt arrival state.
     */
    bool onPacketDelivered(PacketId wire_packet, Cycle now,
                           std::uint32_t &attempts_out);

    /** Retire due acks and fire due timeouts (acks first). */
    void sweep(Cycle now, TransportListener &listener);

    /** Logical packets currently held in the source window. */
    std::size_t windowSize() const { return window_.size(); }

    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** Delivered-set for one (src,dest) flow: every flowSeq below the
     *  watermark is delivered; stragglers above it sit in `above`
     *  (ascending, all above the watermark) until the watermark
     *  sweeps past them. */
    struct FlowFilter
    {
        std::uint32_t watermark = 0;
        std::vector<std::uint32_t> above;

        bool
        contains(std::uint32_t seq) const
        {
            return seq < watermark ||
                   std::binary_search(above.begin(), above.end(), seq);
        }

        void
        insert(std::uint32_t seq)
        {
            if (seq < watermark)
                return;
            const auto at =
                std::lower_bound(above.begin(), above.end(), seq);
            if (at == above.end() || *at != seq)
                above.insert(at, seq);
            auto swept = above.begin();
            while (swept != above.end() && *swept == watermark) {
                ++swept;
                ++watermark;
            }
            above.erase(above.begin(), swept);
        }
    };

    void markFlowDone(const TransportEntry &e);

    /** The snapshot layout behind serialize() and restore(). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    int nodes_;
    Cycle timeout_;
    std::uint32_t retryLimit_;
    Cycle ackDelay_;

    std::unordered_map<PacketId, TransportEntry> window_;
    std::deque<std::pair<Cycle, PacketId>> timeouts_;
    std::deque<std::pair<Cycle, PacketId>> acks_;
    FlowTable<FlowFilter> flows_;
};

} // namespace nox

#endif // NOX_NOC_TRANSPORT_HPP
