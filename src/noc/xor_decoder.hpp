/**
 * @file
 * The NoX input-port decode state machine (§2.4, Figure 4).
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
 * Used by the NoX router's input ports and by every NIC ejection sink
 * (all architectures may legally receive only uncoded flits; the sink
 * logic is shared so NoX ejection decodes identically to §2.3.2).
 */

#ifndef NOX_NOC_XOR_DECODER_HPP
#define NOX_NOC_XOR_DECODER_HPP

#include <optional>

#include "noc/fifo.hpp"
#include "noc/flit.hpp"

namespace nox {

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

/** Per-port decode register state machine. */
class XorDecoder
{
  public:
    XorDecoder() = default;

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
    const WireFlit &registerValue() const { return *reg_; }
    void reset() { reg_.reset(); }

    /** Capture / restore the decode register (checkpointing). The
     *  scratch slot is per-view derived state and is not captured. */
    void serialize(snap::Writer &w) const;
    void restore(snap::Reader &r);

  private:
    std::optional<WireFlit> reg_;
    /** Backing store for DecodeView::presented when the presented
     *  flit is computed (XOR decode, lenient payload correction)
     *  rather than sitting verbatim in the FIFO head. Mutable: view()
     *  is logically const. */
    mutable FlitDesc scratch_;
};

} // namespace nox

#endif // NOX_NOC_XOR_DECODER_HPP
