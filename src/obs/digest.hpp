/**
 * @file
 * Deterministic state-digest ledger: cycle-resolution divergence
 * observability for cross-run equivalence checking.
 *
 * Every correctness pillar of this reproduction — cross-kernel
 * bit-identity, observer-effect freedom, snapshot restore, chaos-churn
 * exactly-once — compares *trajectories*, but until this ledger only
 * the end-of-run NetworkStats were checked, so a divergence 10M cycles
 * before the finish line surfaced as an inscrutable end-state diff.
 * The DigestLedger folds a canonical per-component digest (per-router,
 * per-NIC, transport, fault injector, network-global counters) every
 * `digest_interval` cycles into an append-only ledger: an in-memory
 * stride vector plus an optional JSONL stream (`digest_file=`).
 *
 * The canonical bytes are produced by the *same* serialize() visitors
 * that write snapshots — fed into a scratch Writer in Digest scope
 * (see snap::Scope) and hashed, instead of being kept. The byte layout
 * therefore stays in lockstep with the snapshot format by
 * construction; Digest scope only omits the EnergyEvents counters,
 * which the activity kernel legitimately clock-gates for retired
 * components, and the Network-level digest visitor additionally skips
 * kernel-bookkeeping (active sets) and observer-owned state
 * (metrics window baselines, the age-dump latch).
 *
 * Two ledgers from equivalent runs — kernel A vs kernel B, obs-on vs
 * obs-off, resumed vs uninterrupted — must be stride-for-stride
 * identical; compareLedgers() reports the first stride where they are
 * not, and exactly which components differ. `trace_tool diff` and
 * `trace_tool bisect` build on that to narrow a divergence to the
 * exact cycle and router.
 *
 * Like every observer, the ledger is nullptr-when-off on the Network
 * and strictly read-only with respect to simulation state. It is
 * per-run output, not simulation state: neither serialized nor part
 * of the construction fingerprint, so a bisection re-run may restore
 * a digest-off checkpoint into a digest-on network.
 */

#ifndef NOX_OBS_DIGEST_HPP
#define NOX_OBS_DIGEST_HPP

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "noc/types.hpp"
#include "snapshot/io.hpp"

namespace nox {

/** Digest-ledger configuration (see obsParamsFromConfig for keys). */
struct DigestParams
{
    bool enabled = false;
    Cycle interval = 1000; ///< cycles between strides
    std::string jsonlPath; ///< JSONL ledger path ("" = in-memory only)
};

/** One component's state digest: 64-bit FNV-1a over its canonical
 *  serialize() bytes, avalanched so single-bit state differences do
 *  not collide in the low bits. */
using DigestHash = std::uint64_t;

/** Streaming FNV-1a 64 with a splitmix64-style finalizer. */
DigestHash digestBytes(const std::uint8_t *data, std::size_t len);

/** Order-sensitive fold of one word into a running digest. */
DigestHash digestMix(DigestHash h, std::uint64_t v);

/**
 * The per-component digests captured at one ledger stride. Components
 * absent from the run (no fault injector, no transport) digest to 0 —
 * a value digestBytes cannot produce, so absence never collides with
 * presence.
 */
struct DigestStride
{
    Cycle cycle = 0;
    DigestHash global = 0;    ///< network-global counters + maps
    DigestHash sources = 0;   ///< all traffic sources, folded
    DigestHash faults = 0;    ///< fault injector (0 = absent)
    DigestHash transport = 0; ///< e2e transport (0 = absent)
    std::vector<DigestHash> routers;
    std::vector<DigestHash> nics;

    /** One hash over the whole stride (order-sensitive). */
    DigestHash fold() const;

    bool
    operator==(const DigestStride &o) const
    {
        return cycle == o.cycle && global == o.global &&
               sources == o.sources && faults == o.faults &&
               transport == o.transport && routers == o.routers &&
               nics == o.nics;
    }
    bool operator!=(const DigestStride &o) const { return !(*this == o); }
};

/** Names of the components that differ between two strides, e.g.
 *  "global", "router:12", "nic:3" (sorted by component order). */
std::vector<std::string> divergentComponents(const DigestStride &a,
                                             const DigestStride &b);

/** Collects strides; owned by the Network, driven from step(). */
class DigestLedger
{
  public:
    explicit DigestLedger(const DigestParams &params);

    const DigestParams &params() const { return params_; }

    /** True when the step ending at @p now should capture a stride. */
    bool
    due(Cycle now) const
    {
        return now != 0 && now % params_.interval == 0;
    }

    /** Write the JSONL header line (fingerprint + interval). Called
     *  once by the Network at construction; a no-op without a file. */
    void writeHeader(const std::string &fingerprint);

    /** Append one stride (streams its JSONL line when configured). */
    void record(DigestStride stride);

    std::size_t strideCount() const { return strides_.size(); }

    /** Cycle of the newest stride (-1 before the first). */
    std::int64_t
    lastDigestCycle() const
    {
        return strides_.empty()
                   ? -1
                   : static_cast<std::int64_t>(strides_.back().cycle);
    }

    const std::vector<DigestStride> &strides() const { return strides_; }

    /** Scratch byte sink reused across components (capacity persists
     *  between strides, so steady-state capture never allocates). */
    snap::Writer &scratch() { return scratch_; }

  private:
    DigestParams params_;
    std::vector<DigestStride> strides_;
    snap::Writer scratch_;
    std::ofstream out_;
};

/** A ledger parsed back from its JSONL file. */
struct LedgerFile
{
    std::string fingerprint; ///< from the header ("" = no header)
    Cycle interval = 0;      ///< 0 = no header line seen
    std::vector<DigestStride> strides;
};

/** Parse a JSONL ledger. @return false (with @p err filled) on I/O or
 *  format errors; an empty-but-valid ledger parses successfully. */
bool loadDigestLedger(const std::string &path, LedgerFile *out,
                      std::string *err);

/** Outcome of comparing two ledgers stride-by-stride. */
struct DigestDivergence
{
    bool comparable = true; ///< false: intervals/cycles misaligned
    std::string error;      ///< why not comparable

    bool diverged = false;
    Cycle cycle = 0; ///< first divergent stride's cycle
    std::int64_t firstComparedCycle = -1; ///< -1 = nothing compared
    std::int64_t lastAgreeCycle = -1; ///< -1 = none agreed
    std::vector<std::string> components; ///< differing at first stride
    std::size_t stridesCompared = 0;
};

/**
 * First divergent stride between two ledgers. Strides are paired from
 * the first cycle both ledgers hold, so a run resumed from a
 * checkpoint (whose ledger starts there) compares against the
 * uninterrupted run; from there on the pairs must carry equal cycles.
 * Not comparable: different intervals, a misaligned cycle inside the
 * overlap, or two non-empty ledgers with no cycle in common. Extra
 * trailing strides on the longer ledger are ignored: a shorter run is
 * a prefix, not a divergence.
 */
DigestDivergence compareLedgers(const LedgerFile &a,
                                const LedgerFile &b);

/** Convenience overload over in-memory stride vectors. */
DigestDivergence compareStrides(const std::vector<DigestStride> &a,
                                const std::vector<DigestStride> &b);

} // namespace nox

#endif // NOX_OBS_DIGEST_HPP
