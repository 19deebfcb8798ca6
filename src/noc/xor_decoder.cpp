#include "noc/xor_decoder.hpp"

#include "common/log.hpp"
#include "noc/fault_injector.hpp"
#include "noc/snapshot_codec.hpp"
#include "obs/provenance.hpp"

namespace nox {

DecodeView
XorDecoder::view(const FlitFifo &fifo, bool lenient) const
{
    DecodeView v;
    if (reg_.has_value()) {
        if (fifo.empty())
            return v; // waiting for the next flit of the chain
        const WireFlit &head = fifo.front();
        if (lenient) {
            const DecodeResult r = tryDecodeDiff(*reg_, head);
            v.fault = r.fault;
            if (r.fault == DecodeFault::Structural)
                return v; // unrecoverable: nothing to present
            scratch_ = *r.flit;
        } else {
            scratch_ = decodeDiff(*reg_, head);
        }
        v.presented = &scratch_;
        v.decodedByXor = true;
        // Popping only happens when the chain continues (head encoded);
        // an uncoded head is kept and presented as itself next.
        v.acceptPops = head.encoded;
        return v;
    }
    if (fifo.empty())
        return v;
    const WireFlit &head = fifo.front();
    if (head.encoded) {
        v.latchBubble = true;
        return v;
    }
    NOX_ASSERT(head.fanin() == 1, "uncoded flit with multiple parts");
    v.presented = &head.parts.front();
    if (lenient && head.payload != v.presented->payload) {
        // The wire bits are what the hardware actually has; the parts
        // bookkeeping records what was sent. A divergence means the
        // flit was corrupted in flight — present the corrupted bits
        // and flag it, exactly like a decode mismatch.
        scratch_ = head.parts.front();
        scratch_.payload = head.payload;
        v.presented = &scratch_;
        v.fault = DecodeFault::PayloadMismatch;
    }
    v.acceptPops = true;
    return v;
}

bool
XorDecoder::latch(FlitFifo &fifo)
{
    NOX_ASSERT(!reg_.has_value(), "latch with valid decode register");
    NOX_ASSERT(!fifo.empty() && fifo.front().encoded,
               "latch requires an encoded head flit");
    reg_ = fifo.pop();
    return true;
}

bool
XorDecoder::accept(FlitFifo &fifo)
{
    if (reg_.has_value()) {
        NOX_ASSERT(!fifo.empty(), "accept with empty FIFO");
        const bool chain_continues = fifo.front().encoded;
        if (chain_continues) {
            reg_ = fifo.pop();
            return true;
        }
        reg_.reset();
        return false; // uncoded head kept; no pop, no credit yet
    }
    NOX_ASSERT(!fifo.empty() && !fifo.front().encoded,
               "accept on invalid decoder state");
    fifo.drop();
    return true;
}

void
XorDecoder::collectUnique(const WireFlit &w, std::vector<FlitDesc> &out,
                          std::size_t from)
{
    for (const FlitDesc &d : w.parts) {
        bool seen = false;
        for (std::size_t i = from; i < out.size(); ++i)
            seen = seen || out[i].uid == d.uid;
        if (!seen)
            out.push_back(d);
    }
}

void
XorDecoder::chargeRecovery(const WireFlit &w, const DecodeSite &site,
                           Cycle now)
{
    // The location guard skips constituents still buffered upstream:
    // they accrue their own charges there.
    for (const FlitDesc &d : w.parts)
        site.prov->onStall(d.uid, LatencyComponent::XorRecovery, site.at,
                           site.nic, now);
}

void
XorDecoder::reportMismatch(const DecodeSite &site, std::uint64_t uid)
{
    site.faults->onDecodeMismatch();
    trace(site, TraceEventKind::DecodeFault, uid);
    if (site.tracer)
        site.tracer->triggerFlightDump("decode-fault", {site.at});
}

void
XorDecoder::serialize(snap::Writer &w) const
{
    snap::ioOptional(w, reg_);
}

void
XorDecoder::restore(snap::Reader &r)
{
    snap::ioOptional(r, reg_);
}

} // namespace nox
