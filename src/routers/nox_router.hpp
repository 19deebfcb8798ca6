/**
 * @file
 * The NoX router (§2 of the paper).
 *
 * The crossbar is an XOR of all switch-enabled inputs per output: with
 * one driver the flit passes unmodified; with several, the output is
 * their bitwise XOR, marked encoded, and *still productive* — the
 * downstream router recovers every flit by XORing consecutively
 * received values (see XorDecoder). An output arbiter runs in parallel
 * with traversal; under contention its grant decides which input's
 * buffer is freed immediately.
 *
 * Each output's arbitration/masking logic operates in two modes
 * (§2.6):
 *   - Recovery: switch mask == arb mask; collisions may occur freely
 *     and are resolved by successive masking of past winners.
 *   - Scheduled: the switch mask enables exactly one input and the
 *     arb mask is its complement, pre-scheduling the next transfer
 *     like a perfectly speculating router.
 *
 * Multi-flit packets (§2.7) are sent contiguously; any collision
 * involving a multi-flit head aborts the cycle (invalid value on the
 * link, nothing freed) and the arbiter's winner owns the output until
 * its tail passes.
 */

#ifndef NOX_ROUTERS_NOX_ROUTER_HPP
#define NOX_ROUTERS_NOX_ROUTER_HPP

#include <array>
#include <memory>
#include <vector>

#include "noc/router.hpp"
#include "noc/xor_decoder.hpp"

namespace nox {

/** Microarchitectural activity statistics specific to the NoX. */
struct NoxStats
{
    /** Productive encoded transfers by collision fan-in (index =
     *  number of colliding inputs; 2..radix used; sized generously
     *  for concentrated-mesh radixes). */
    std::array<std::uint64_t, 33> collisionsBySize{};

    /** Output-cycles spent in each §2.6 mode. */
    std::uint64_t recoveryCycles = 0;
    std::uint64_t scheduledCycles = 0;
    std::uint64_t lockedCycles = 0;

    /** Uncontended single-input traversals. */
    std::uint64_t cleanTraversals = 0;

    /** Transfers that were pre-scheduled by Scheduled-mode
     *  arbitration (including tail-cycle pre-scheduling). */
    std::uint64_t prescheduled = 0;

    /** Multi-flit abort events (§2.7). */
    std::uint64_t aborts = 0;

    std::uint64_t
    totalCollisions() const
    {
        std::uint64_t t = 0;
        for (auto c : collisionsBySize)
            t += c;
        return t;
    }
};

/** The XOR-coded-crossbar router. */
class NoxRouter : public Router
{
  public:
    /** Output arbitration/masking mode (§2.6). */
    enum class Mode { Recovery, Scheduled };

    NoxRouter(NodeId id, const Mesh &mesh, const RoutingTable &table,
              const RouterParams &params);

    RouterArch arch() const override { return RouterArch::Nox; }

    void evaluate(Cycle now) override;

    /**
     * A severed input link can leave an XOR decode chain open forever
     * (its remaining values will never arrive): drop the undecodable
     * open suffix — register and/or trailing encoded values — and
     * count its unrecovered constituents as lost.
     */
    void killInput(int in_port, std::vector<FlitDesc> &lost) override;

    /**
     * NoX ports buffer *wire values*, not flits: when any constituent
     * of a port's decode chain is condemned the whole port content is
     * dropped (the chain is undecodable without every value); clean
     * ports are untouched. Collateral flits are reported in
     * @p removed so the network can cascade the loss.
     */
    void purgeFlits(const FlitCondemned &condemned,
                    std::vector<FlitDesc> &removed) override;

    /** Reset every output's mask automaton and lock after a mid-run
     *  routing-table rebuild. */
    void onTableRebuild() override;

    /**
     * Quiescent iff base state is idle, every input decode register
     * is empty, and every output's mask automaton has settled back to
     * the fully-open Recovery state (a Scheduled or partially-masked
     * output still needs ticks — or a returning credit — before a
     * newly arriving flit would see the open switch).
     */
    bool quiescent() const override;

    // Introspection for the golden timing tests.
    Mode mode(int port) const { return out_[port].mode; }
    RequestMask switchMask(int port) const
    {
        return out_[port].switchMask;
    }
    RequestMask arbMask(int port) const { return out_[port].arbMask; }
    int lockOwner(int port) const { return out_[port].lockOwner; }
    const XorDecoder &decoder(int port) const { return decoders_[port]; }
    const NoxStats &noxStats() const { return noxStats_; }

    std::uint64_t xorCollisions() const override
    {
        return noxStats_.totalCollisions();
    }

    void serialize(snap::Writer &w,
                   snap::Scope scope) const override;
    void restore(snap::Reader &r) override;

    void debugPerturb() override;

  private:
    /** The snapshot layout of this class's own state (serialize()
     *  and restore() run the base class's first). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self, snap::Scope scope);

    struct OutState
    {
        Mode mode = Mode::Recovery;
        RequestMask switchMask = 0; // set in constructor
        RequestMask arbMask = 0;
        int lockOwner = -1;         // multi-flit exclusive owner
        PacketId lockPacket = kInvalidPacket;
        std::unique_ptr<Arbiter> arb;
    };

    /** Input @p port's decode site, located at this router. */
    DecodeSite
    decodeSite(int port)
    {
        return {energy_, faults_, tracer_, prov_, id_, port, false};
    }

    /** Where input @p port's decode rules send a freed slot's
     *  credit: the upstream sender, whatever the value's VC. */
    auto
    creditReturn(int port)
    {
        return [this, port](int) { returnCredit(port); };
    }

    /** Uncontended (or Scheduled) single-input traversal. */
    void traverseSingle(int in_port, int out_port,
                        const DecodeView &view, Cycle now);

    void lockOutput(OutState &st, int in_port, PacketId packet);
    void unlockOutput(OutState &st);

    std::vector<XorDecoder> decoders_;
    std::vector<OutState> out_;
    NoxStats noxStats_;

    // Per-evaluate scratch (reused across cycles, see evaluate()).
    // scratchViews_ is sized once and *not* cleared between cycles:
    // entries are only read for ports named by this cycle's request
    // masks, so stale views of idle ports are unreachable — which is
    // what lets evaluate() skip both the per-cycle fill and the
    // decoder query for idle ports.
    std::vector<DecodeView> scratchViews_;
    std::vector<RequestMask> scratchRequests_; ///< per-output requests
    std::vector<FlitDesc> scratchColliding_;   ///< XOR-combine inputs
};

} // namespace nox

#endif // NOX_ROUTERS_NOX_ROUTER_HPP
