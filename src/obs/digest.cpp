/** @file Digest-ledger implementation (see digest.hpp). */

#include "obs/digest.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "obs/jsonl.hpp"

namespace nox {
namespace {

constexpr DigestHash kFnvOffset = 0xcbf29ce484222325ULL;
constexpr DigestHash kFnvPrime = 0x100000001b3ULL;

/** splitmix64-style avalanche: spreads single-bit differences over
 *  the whole word so truncated comparisons stay discriminating. */
DigestHash
avalanche(DigestHash h)
{
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
}

/** The ledger's header line. */
template <typename Ar, typename L>
void
headerLayout(Ar &ar, L &file)
{
    ar.tag("type", "digest_header");
    ar.field("interval", file.interval);
    ar.check(file.interval > 0, "interval", "must be positive");
    ar.field("fingerprint", file.fingerprint);
}

/** One stride line; `fold` is derived, so a load checks it. */
template <typename Ar, typename S>
void
strideLayout(Ar &ar, S &s)
{
    ar.tag("type", "digest");
    ar.field("cycle", s.cycle);
    DigestHash fold = Ar::kReading ? 0 : s.fold();
    ar.hex("fold", fold);
    ar.hex("global", s.global);
    ar.hex("sources", s.sources);
    ar.hex("faults", s.faults);
    ar.hex("transport", s.transport);
    ar.hex("routers", s.routers);
    ar.hex("nics", s.nics);
    if constexpr (Ar::kReading) {
        ar.check(fold == s.fold(), "fold",
                 "mismatch (corrupt or hand-edited ledger)");
    }
}

} // namespace

DigestHash
digestBytes(const std::uint8_t *data, std::size_t len)
{
    DigestHash h = kFnvOffset;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= kFnvPrime;
    }
    h = avalanche(h);
    // 0 is reserved for "component absent"; remap the (astronomically
    // unlikely) real hash of 0 so absence can never alias presence.
    return h != 0 ? h : 1;
}

DigestHash
digestMix(DigestHash h, std::uint64_t v)
{
    return (h ^ avalanche(v)) * kFnvPrime;
}

DigestHash
DigestStride::fold() const
{
    DigestHash h = kFnvOffset;
    h = digestMix(h, cycle);
    h = digestMix(h, global);
    h = digestMix(h, sources);
    h = digestMix(h, faults);
    h = digestMix(h, transport);
    h = digestMix(h, routers.size());
    for (DigestHash r : routers)
        h = digestMix(h, r);
    h = digestMix(h, nics.size());
    for (DigestHash n : nics)
        h = digestMix(h, n);
    return h;
}

std::vector<std::string>
divergentComponents(const DigestStride &a, const DigestStride &b)
{
    std::vector<std::string> out;
    if (a.global != b.global)
        out.push_back("global");
    if (a.sources != b.sources)
        out.push_back("sources");
    if (a.faults != b.faults)
        out.push_back("faults");
    if (a.transport != b.transport)
        out.push_back("transport");
    const std::size_t nr = std::max(a.routers.size(), b.routers.size());
    for (std::size_t i = 0; i < nr; ++i) {
        const DigestHash ra = i < a.routers.size() ? a.routers[i] : 0;
        const DigestHash rb = i < b.routers.size() ? b.routers[i] : 0;
        if (ra != rb)
            out.push_back("router:" + std::to_string(i));
    }
    const std::size_t nn = std::max(a.nics.size(), b.nics.size());
    for (std::size_t i = 0; i < nn; ++i) {
        const DigestHash na = i < a.nics.size() ? a.nics[i] : 0;
        const DigestHash nb = i < b.nics.size() ? b.nics[i] : 0;
        if (na != nb)
            out.push_back("nic:" + std::to_string(i));
    }
    return out;
}

DigestLedger::DigestLedger(const DigestParams &params) : params_(params)
{
    NOX_ASSERT(params_.interval > 0,
               "digest interval must be positive");
    if (!params_.jsonlPath.empty()) {
        out_.open(params_.jsonlPath, std::ios::trunc);
        if (!out_) {
            warn("digest: cannot open '", params_.jsonlPath,
                 "' for writing; ledger will be in-memory only");
        }
    }
}

void
DigestLedger::writeHeader(const std::string &fingerprint)
{
    if (!out_)
        return;
    const LedgerFile header{fingerprint, params_.interval, {}};
    jsonl::Writer w(out_);
    w.record([&] { headerLayout(w, header); });
    out_.flush();
}

void
DigestLedger::record(DigestStride stride)
{
    if (out_) {
        jsonl::Writer w(out_);
        w.record([&] { strideLayout(w, stride); });
        // Flush per stride: a crashed or killed run still leaves a
        // complete ledger prefix for the bisector to work from.
        out_.flush();
    }
    strides_.push_back(std::move(stride));
}

bool
loadDigestLedger(const std::string &path, LedgerFile *out,
                 std::string *err)
{
    *out = LedgerFile{};
    return jsonl::load(path, *err, [&](jsonl::Reader &r) {
        while (r.next()) {
            const std::string type = r.type();
            if (type == "digest_header") {
                r.record([&] { headerLayout(r, *out); });
            } else if (type == "digest") {
                DigestStride s;
                r.record([&] { strideLayout(r, s); });
                out->strides.push_back(std::move(s));
            } // other record kinds are tolerated
        }
    });
}

DigestDivergence
compareStrides(const std::vector<DigestStride> &a,
               const std::vector<DigestStride> &b)
{
    DigestDivergence d;
    const std::size_t n = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i].cycle != b[i].cycle) {
            d.comparable = false;
            d.error = "stride " + std::to_string(i) +
                      " cycles misaligned (A=" +
                      std::to_string(a[i].cycle) +
                      " B=" + std::to_string(b[i].cycle) +
                      "); were the ledgers written with the same "
                      "digest_interval?";
            return d;
        }
        d.stridesCompared = i + 1;
        if (a[i] != b[i]) {
            d.diverged = true;
            d.cycle = a[i].cycle;
            d.components = divergentComponents(a[i], b[i]);
            return d;
        }
        d.lastAgreeCycle = static_cast<std::int64_t>(a[i].cycle);
    }
    return d;
}

DigestDivergence
compareLedgers(const LedgerFile &a, const LedgerFile &b)
{
    if (a.interval != 0 && b.interval != 0 &&
        a.interval != b.interval) {
        DigestDivergence d;
        d.comparable = false;
        d.error = "digest intervals differ (A=" +
                  std::to_string(a.interval) +
                  " B=" + std::to_string(b.interval) + ")";
        return d;
    }
    return compareStrides(a.strides, b.strides);
}

} // namespace nox
