/**
 * @file
 * The NoX input port (§2.4, Figure 4): a decode register in front of
 * the port's FIFO.
 *
 * A single decode register R plus the input FIFO suffice to recover
 * all flits from an encoded chain E1=x1^..^xk, E2=x2^..^xk, ..., Ek=xk:
 *
 *   - R empty, head uncoded   -> present head; pop on accept.
 *   - R empty, head encoded   -> latch R=head, pop (one bubble cycle).
 *   - R valid, FIFO non-empty -> present R ^ head (= decodeDiff).
 *       on accept: head encoded -> R=head, pop (chain continues);
 *                  head uncoded -> clear R, KEEP head (it is itself
 *                  the next packet, presented on a later cycle).
 *
 * The port and its rules — the decode step with its latch and
 * acceptance bookkeeping, and the hard-fault drops — live here once,
 * shared by the NoX router's inputs and every NIC ejection sink (the
 * sink decodes NoX ejection exactly as §2.3.2 does). The owner adds
 * only where a freed slot's credit goes and its location.
 */

#ifndef NOX_NOC_XOR_DECODER_HPP
#define NOX_NOC_XOR_DECODER_HPP

#include <optional>
#include <vector>

#include "noc/energy_events.hpp"
#include "noc/fifo.hpp"
#include "noc/flit.hpp"
#include "obs/trace_recorder.hpp"

namespace nox {

class FaultInjector;
class LatencyProvenance;

namespace snap {
class Writer;
class Reader;
} // namespace snap

/** Outcome of one decoder evaluation for the current cycle. */
struct DecodeView
{
    /**
     * Flit presentable to the switch / sink this cycle, if any
     * (nullptr when nothing can be presented). Points into the
     * port's FIFO head or the decoder's scratch slot — NOT owned by
     * the view. Valid until the decoder or its FIFO next mutates
     * (accept/latch/pop/push; a neighbour's stage() behind the tail
     * does not count); copy the FlitDesc before committing anything.
     * A FlitDesc copy per port per cycle is measurable in the
     * always-tick kernel, which is why this is not a value.
     */
    const FlitDesc *presented = nullptr;

    /** True when the cycle is consumed latching an encoded head. */
    bool latchBubble = false;

    /** True when accepting pops a flit from the FIFO (credit freed). */
    bool acceptPops = false;

    /** True when this presentation performed an XOR decode. */
    bool decodedByXor = false;

    /** Integrity outcome of the decode (lenient mode only; strict
     *  mode panics instead). PayloadMismatch still presents a flit —
     *  carrying the corrupted prev^next payload the hardware would
     *  compute. Structural presents nothing: the chain is
     *  unrecoverable and the port wedges. */
    DecodeFault fault = DecodeFault::None;
};

/**
 * Where a decode port sits and what its bookkeeping reports to: the
 * owner's energy counters and observers (each nullptr when off), and
 * the location provenance charges and trace events name.
 */
struct DecodeSite
{
    EnergyEvents &energy;
    FaultInjector *faults;   ///< non-null: decode leniently
    TraceRecorder *tracer;
    LatencyProvenance *prov;
    NodeId at;               ///< the router, or the NIC's node
    int port;                ///< input port, or the NIC's local port
    bool nic;                ///< an ejection sink, not a router input
};

/** Per-port decode register state machine and the port's rules. */
class XorDecoder
{
  public:
    /**
     * Inspect @p fifo and report what this port can do this cycle.
     * Does not mutate state; call latch()/accept() to commit.
     *
     * Strict mode (@p lenient false, the default) panics on decode
     * integrity violations — fault-free operation treats them as
     * simulator bugs. Lenient mode (fault injection active) reports
     * them in DecodeView::fault instead.
     */
    DecodeView view(const FlitFifo &fifo, bool lenient = false) const;

    /**
     * Commit the bubble-latch indicated by DecodeView::latchBubble:
     * pops the encoded head into the decode register. Returns true if
     * a pop happened (a credit must be returned upstream).
     */
    bool latch(FlitFifo &fifo);

    /**
     * Commit acceptance of the presented flit. Returns true if a flit
     * was popped from the FIFO (credit must be returned upstream).
     */
    bool accept(FlitFifo &fifo);

    bool registerValid() const { return reg_.has_value(); }
    void reset() { reg_.reset(); }

    // -- port rules; @p credit(vc) returns one freed FIFO slot --

    /**
     * This cycle's decode step. An encoded head under an empty
     * register latches at once: one SRAM read, one latch, a credit,
     * and an XorRecovery charge to the chain constituent already
     * accepted here. A loaded register waiting for the chain's next
     * value is charged the same way. Returns the view; a presented
     * flit waits for acceptPresented().
     */
    template <typename Credit>
    DecodeView step(FlitFifo &fifo, const DecodeSite &site, Cycle now,
                    Credit &&credit);

    /**
     * Accept the flit @p v presents: decode and integrity-fault
     * bookkeeping (counted here, once — view() re-inspects the same
     * head every cycle), then the decoder advance and, when it pops,
     * one SRAM read and a credit. Invalidates v.presented.
     */
    template <typename Credit>
    void acceptPresented(FlitFifo &fifo, const DecodeView &v,
                         const DecodeSite &site, Credit &&credit);

    /**
     * Drop the chain left open at this port — its link died, or a
     * mid-run table rebuild reset the upstream output masks, so its
     * remaining values never arrive. A chain closes on its final
     * (plain) wire value; the register and/or trailing encoded values
     * that nothing closes can never be decoded. Their constituents go
     * to @p dropped, each once; every dropped FIFO value is credited.
     */
    template <typename Credit>
    void dropOpenChain(FlitFifo &fifo, std::vector<FlitDesc> &dropped,
                       Credit &&credit);

    /**
     * The contamination rule: wire values are XOR combinations, so
     * one constituent matched by @p condemned poisons every value of
     * the port — register and FIFO alike are dropped (see
     * dropOpenChain for what is reported and credited). A clean port
     * is left untouched.
     */
    template <typename Condemned, typename Credit>
    void purgeContaminated(FlitFifo &fifo, const Condemned &condemned,
                           std::vector<FlitDesc> &dropped,
                           Credit &&credit);

    /** Drop the register and every FIFO value (see dropOpenChain). */
    template <typename Credit>
    void
    dropAll(FlitFifo &fifo, std::vector<FlitDesc> &dropped,
            Credit &&credit)
    {
        dropSuffix(fifo, 0, dropped, credit);
    }

    /** Capture / restore the decode register (checkpointing). The
     *  scratch slot is per-view derived state and is not captured. */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    /** Drop every FIFO value after the first @p keep, and with
     *  @p keep 0 the register too (it precedes the FIFO head in the
     *  chain). */
    template <typename Credit>
    void dropSuffix(FlitFifo &fifo, std::size_t keep,
                    std::vector<FlitDesc> &dropped, Credit &credit);

    /** Append @p w 's constituents to @p out, skipping uids already
     *  appended from index @p from on (chain values nest). */
    static void collectUnique(const WireFlit &w, std::vector<FlitDesc> &out,
                              std::size_t from);

    /** Charge one XorRecovery stall to each constituent of @p w. */
    static void chargeRecovery(const WireFlit &w, const DecodeSite &site,
                               Cycle now);

    /** Count an accepted decode-integrity fault: the injector's
     *  tally, a trace event and the decode-fault flight dump. */
    static void reportMismatch(const DecodeSite &site, std::uint64_t uid);

    static void
    trace(const DecodeSite &site, TraceEventKind kind, std::uint64_t uid)
    {
        if (site.tracer)
            site.tracer->record(kind, site.at, site.port, uid, 0,
                                site.nic);
    }

    std::optional<WireFlit> reg_;
    /** Backing store for DecodeView::presented when the presented
     *  flit is computed (XOR decode, lenient payload correction)
     *  rather than sitting verbatim in the FIFO head. Mutable: view()
     *  is logically const. */
    mutable FlitDesc scratch_;
};

template <typename Credit>
DecodeView
XorDecoder::step(FlitFifo &fifo, const DecodeSite &site, Cycle now,
                 Credit &&credit)
{
    const DecodeView v = view(fifo, site.faults != nullptr);
    if (v.latchBubble) {
        if (site.prov)
            chargeRecovery(fifo.front(), site, now);
        const int vc = fifo.front().vc;
        latch(fifo);
        site.energy.bufferReads += 1;
        site.energy.decodeLatches += 1;
        credit(vc);
    } else if (!v.presented && site.prov && reg_) {
        // The chain's next wire value has not arrived: the flit it
        // will recover is stuck in XOR recovery, not on a link.
        chargeRecovery(*reg_, site, now);
    }
    return v;
}

template <typename Credit>
void
XorDecoder::acceptPresented(FlitFifo &fifo, const DecodeView &v,
                            const DecodeSite &site, Credit &&credit)
{
    if (v.decodedByXor) {
        site.energy.decodeOps += 1;
        trace(site, TraceEventKind::XorDecode, v.presented->uid);
    }
    if (v.fault == DecodeFault::PayloadMismatch)
        reportMismatch(site, v.presented->uid);
    const int vc = fifo.front().vc;
    if (accept(fifo)) {
        site.energy.bufferReads += 1;
        credit(vc);
    }
}

template <typename Credit>
void
XorDecoder::dropOpenChain(FlitFifo &fifo, std::vector<FlitDesc> &dropped,
                          Credit &&credit)
{
    // Simulate future decode progress over [register, FIFO...]:
    // start is the first value of the chain still open at the end,
    // -1 naming the register itself.
    bool open = reg_.has_value();
    std::ptrdiff_t start = -1;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        if (open) {
            open = fifo.at(i).encoded;
        } else if (fifo.at(i).encoded) {
            open = true;
            start = static_cast<std::ptrdiff_t>(i);
        }
    }
    if (open)
        dropSuffix(fifo, start < 0 ? 0 : static_cast<std::size_t>(start),
                   dropped, credit);
}

template <typename Condemned, typename Credit>
void
XorDecoder::purgeContaminated(FlitFifo &fifo, const Condemned &condemned,
                              std::vector<FlitDesc> &dropped,
                              Credit &&credit)
{
    bool contaminated = false;
    if (reg_) {
        for (const FlitDesc &d : reg_->parts)
            contaminated = contaminated || condemned(d);
    }
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        for (const FlitDesc &d : fifo.at(i).parts)
            contaminated = contaminated || condemned(d);
    }
    if (contaminated)
        dropSuffix(fifo, 0, dropped, credit);
}

template <typename Credit>
void
XorDecoder::dropSuffix(FlitFifo &fifo, std::size_t keep,
                       std::vector<FlitDesc> &dropped, Credit &credit)
{
    const std::size_t from = dropped.size();
    if (keep == 0 && reg_) {
        collectUnique(*reg_, dropped, from);
        reg_.reset();
    }
    // Rotate the FIFO once: kept values go back in order, the rest
    // are reported and their slots credited.
    const std::size_t n = fifo.size();
    for (std::size_t i = 0; i < n; ++i) {
        WireFlit w = fifo.pop();
        if (i < keep) {
            fifo.push(std::move(w));
            continue;
        }
        collectUnique(w, dropped, from);
        credit(w.vc);
    }
}

} // namespace nox

#endif // NOX_NOC_XOR_DECODER_HPP
