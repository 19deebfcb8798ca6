/**
 * @file
 * Virtual-channel wormhole router — the §2.8 exploration.
 *
 * The paper's evaluated designs are all VC-free wormhole routers that
 * rely on multiple physical networks for protocol-deadlock isolation,
 * citing works [1, 17, 27, 29] that argue physical channels can be
 * the more power-efficient choice. To let this repo *quantify* that
 * §2.8 trade-off, VcRouter implements the conventional alternative:
 * one physical network whose input ports hold V parallel buffers
 * (virtual channels) with per-VC credit flow.
 *
 * Scope (documented, deliberate):
 *  - the microarchitecture is the non-speculative baseline (§3.1.1)
 *    with SA+ST in one cycle; no speculation, no XOR coding — the
 *    paper explicitly leaves a VC NoX to future work;
 *  - VC assignment is static per packet (by traffic class), i.e. VCs
 *    are used for class isolation exactly as the request/reply
 *    physical-network pair is — the comparison the §2.8 debate and
 *    Yoon et al. [29] are about;
 *  - allocation is two-stage: each input port round-robins across its
 *    VCs with eligible heads, then each output round-robins across
 *    input ports; one flit per output per cycle (single crossbar).
 *
 * Wormhole locks are per (output, vc): a blocked packet on one VC
 * does not prevent the other VC from using the same physical link —
 * the property that makes VCs an alternative to physical channels.
 */

#ifndef NOX_ROUTERS_VC_ROUTER_HPP
#define NOX_ROUTERS_VC_ROUTER_HPP

#include <memory>
#include <vector>

#include "noc/router.hpp"

namespace nox {

/** VC-enabled non-speculative wormhole router. */
class VcRouter : public Router
{
  public:
    VcRouter(NodeId id, const Mesh &mesh, const RoutingTable &table,
             const RouterParams &params, int vc_count);

    RouterArch arch() const override
    {
        return RouterArch::NonSpeculative;
    }

    int vcCount() const override { return vcs_; }

    void evaluate(Cycle now) override;
    void commit() override;
    void stageCreditVc(int out_port, int vc) override;

    /** Base retry handling plus the per-VC credit watchdog. */
    void evaluateLink(Cycle now) override;

    /** Quiescent iff base state is idle and every per-VC buffer,
     *  staged credit and wormhole lane is empty/closed. */
    bool quiescent() const override;

    /** Base teardown plus zeroing the dead output's per-VC credit
     *  books and clearing its wormhole lanes (a stale lock on a dead
     *  link would block quiescence forever). */
    void killOutput(int out_port, std::vector<FlitDesc> &lost) override;

    /** Per-lane purge: condemned flits are removed from every VC
     *  buffer (with per-lane upstream credit return), then the base
     *  link-retry state is scrubbed. */
    void purgeFlits(const FlitCondemned &condemned,
                    std::vector<FlitDesc> &removed) override;

    /** Clear every wormhole lane after a mid-run table rebuild. */
    void onTableRebuild() override;

    /** Refill each of the revived output's per-VC credit lanes with
     *  the free slots of the downstream lane (the full depth toward a
     *  NIC, which a router kill drained) and clear its staged/owed
     *  books and wormhole lanes. */
    void onOutputRevived(int out_port) override;

    // Introspection (tests).
    const FlitFifo &vcFifo(int port, int vc) const
    {
        return vcIn_[index(port, vc)];
    }
    int vcCredits(int out_port, int vc) const
    {
        return vcCredits_[index(out_port, vc)];
    }
    int lockOwner(int out_port, int vc) const
    {
        return lockOwner_[index(out_port, vc)];
    }

    void serialize(snap::Writer &w,
                   snap::Scope scope) const override;
    void restore(snap::Reader &r) override;

    void debugPerturb() override;

  protected:
    /** Arrivals are staged into the lane their VC tag names. */
    FlitFifo &arrivalFifo(int in_port, const WireFlit &flit) override
    {
        NOX_ASSERT(flit.vc < vcs_, "flit VC ", int(flit.vc),
                   " out of range");
        return vcIn_[index(in_port, flit.vc)];
    }

    /** A flushed retry entry refunds the credit of its own VC lane. */
    void refundRetryCredit(int out_port, const WireFlit &flit) override
    {
        vcCredits_[index(out_port, flit.vc)] += 1;
    }

  private:
    /** The snapshot layout of this class's own state (serialize()
     *  and restore() run the base class's first). */
    template <typename Ar, typename Self>
    static void layout(Ar &ar, Self &self);

    std::size_t
    index(int port, int vc) const
    {
        return static_cast<std::size_t>(port) *
                   static_cast<std::size_t>(vcs_) +
               static_cast<std::size_t>(vc);
    }

    void traverse(int in_port, int vc, int out_port, Cycle now);

    /** Send a VC-tagged credit for (in_port, vc) upstream. */
    void returnVcCredit(int in_port, int vc);

    int vcs_;
    std::vector<FlitFifo> vcIn_;        ///< [port][vc]
    std::vector<int> vcCredits_;        ///< [out_port][vc]
    std::vector<int> stagedVcCredits_;  ///< [out_port][vc]
    std::vector<int> vcCreditsLost_;    ///< [out_port][vc] credits the
                                        ///< injector swallowed, owed
                                        ///< by the watchdog
    std::vector<int> lockOwner_;        ///< [out_port][vc] input or -1
    std::vector<PacketId> lockPacket_;  ///< [out_port][vc]
    std::vector<std::unique_ptr<Arbiter>> outArb_; ///< per output
    std::vector<std::unique_ptr<Arbiter>> vcArb_;  ///< per input

    /** Stage-1 winner of one input port (see evaluate()). */
    struct Candidate
    {
        int vc = -1;
        int out = -1;
    };

    // Per-evaluate scratch (reused across cycles, see evaluate()).
    std::vector<Candidate> scratchChosen_;
    std::vector<int> scratchVcOut_;
};

} // namespace nox

#endif // NOX_ROUTERS_VC_ROUTER_HPP
