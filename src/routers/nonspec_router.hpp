/**
 * @file
 * The non-speculative baseline router (§3.1.1, Figure 5).
 *
 * A canonical wormhole router with lookahead route computation: switch
 * arbitration and switch traversal happen sequentially *within one
 * long clock cycle* (0.92 ns in Table 2), so every output can move a
 * flit every cycle regardless of contention — maximum efficiency, at
 * the price of the slowest clock of the four designs.
 */

#ifndef NOX_ROUTERS_NONSPEC_ROUTER_HPP
#define NOX_ROUTERS_NONSPEC_ROUTER_HPP

#include <memory>
#include <vector>

#include "noc/router.hpp"

namespace nox {

/** Non-speculative single-cycle wormhole router. */
class NonSpecRouter : public Router
{
  public:
    NonSpecRouter(NodeId id, const Mesh &mesh,
                  const RoutingTable &table,
                  const RouterParams &params);

    RouterArch arch() const override
    {
        return RouterArch::NonSpeculative;
    }

    void evaluate(Cycle now) override;

    /** Quiescent iff base state is idle and no wormhole is open. */
    bool quiescent() const override;

    /** Drop all wormhole locks: rerouted flits may reach this router
     *  through different inputs than their heads did. */
    void onTableRebuild() override;

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

    std::vector<std::unique_ptr<Arbiter>> arb_;
    std::vector<int> lockOwner_;
    std::vector<PacketId> lockPacket_;

    // Per-evaluate scratch, sized once (see evaluate()).
    std::vector<const FlitDesc *> scratchHead_;   ///< in-place heads
    std::vector<RequestMask> scratchRequests_;    ///< per-output
};

} // namespace nox

#endif // NOX_ROUTERS_NONSPEC_ROUTER_HPP
