/**
 * @file
 * The speculative single-cycle routers (§3.1.2, Figure 6), adapted
 * from Mullins et al. [21, 22] to wormhole flow control.
 *
 * Every request not masked by the Switch-Fast mask speculatively
 * traverses the switch. If exactly one input drives an output the
 * transfer succeeds; if several collide, the cycle is wasted and an
 * indeterminate value is driven across the output channel (energy is
 * spent, nothing is delivered). An allocator running in parallel
 * ("Switch Next") computes the next cycle's Switch-Fast mask.
 *
 * The two variants differ only in what Switch Next sees:
 *   - Spec-Fast: all requests not masked by Switch-Fast — including a
 *     currently-succeeding one, producing the paper's "unnecessary
 *     switch reservations" (the extra dead cycle of Figure 7b). For
 *     wormhole fairness, a packet newly exposed behind a departing
 *     packet may not request arbitration in its first cycle.
 *   - Spec-Accurate: the same requests as Switch-Fast, minus those
 *     that successfully traversed this cycle, so a collision loser is
 *     pre-scheduled immediately (Figure 7c).
 */

#ifndef NOX_ROUTERS_SPEC_ROUTER_HPP
#define NOX_ROUTERS_SPEC_ROUTER_HPP

#include <memory>
#include <vector>

#include "noc/router.hpp"

namespace nox {

/** Speculative router; @see SpecVariant for the two flavours. */
class SpecRouter : public Router
{
  public:
    enum class Variant { Fast, Accurate };

    SpecRouter(NodeId id, const Mesh &mesh, const RoutingTable &table,
               const RouterParams &params, Variant variant);

    RouterArch arch() const override
    {
        return variant_ == Variant::Fast ? RouterArch::SpecFast
                                         : RouterArch::SpecAccurate;
    }

    void evaluate(Cycle now) override;

    /**
     * Quiescent iff base state is idle, no wormhole is open, no
     * reservation is pending, and the previous-head registers have
     * settled to invalid (the Spec-Fast newly-exposed rule reads
     * them, so retiring the router with a stale entry would mask a
     * future head's first request — one idle tick clears them).
     */
    bool quiescent() const override;

    /** Drop wormhole locks and pending reservations after a mid-run
     *  routing-table rebuild. */
    void onTableRebuild() override;

    Variant variant() const { return variant_; }

    /** Reserved input for the next cycle on @p port (-1 = open). */
    int reservation(int port) const { return reserved_[port]; }

    /** Input currently owning output @p port mid-packet (-1 = none). */
    int lockOwner(int port) const { return lockOwner_[port]; }

    void serialize(snap::Writer &w,
                   snap::Scope scope) const override;
    void restore(snap::Reader &r) override;

    void debugPerturb() override;

  private:
    /** The snapshot layout of this class's own state (serialize()
     *  and restore() run the base class's first). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    Variant variant_;
    std::vector<std::unique_ptr<Arbiter>> arb_;

    /** Switch-Fast reservation for the *current* cycle (-1 = open). */
    std::vector<int> reserved_;

    /** Wormhole multi-flit exclusive ownership. */
    std::vector<int> lockOwner_;
    std::vector<PacketId> lockPacket_;

    /** Head packet at each input at the start of the previous cycle
     *  (0 = FIFO was empty) — drives the newly-exposed rule. */
    std::vector<PacketId> prevHeadPacket_;

    // Per-evaluate scratch, sized once (see evaluate()).
    std::vector<const FlitDesc *> scratchHead_;   ///< in-place heads
    std::vector<RequestMask> scratchRequests_;    ///< per-output
};

} // namespace nox

#endif // NOX_ROUTERS_SPEC_ROUTER_HPP
