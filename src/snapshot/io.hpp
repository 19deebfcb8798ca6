/**
 * @file
 * Byte-stream primitives for deterministic snapshots.
 *
 * A snapshot is a flat little-endian byte stream. Every stateful
 * component has one layout: a function template that names each of
 * its fields once, in stream order, and runs over a Writer to save
 * or over a Reader to load (see io() and friends at the end of this
 * file). A field therefore cannot be written one way and read
 * another. There is no in-stream schema — the layouts *are* the
 * schema — so the format is guarded three ways: a CRC-32C per section
 * (see file.hpp), fourcc sanity tags at component boundaries (tag()),
 * and checks on read that sit on the line that moves the field:
 * truncation, oversized strings and counts, non-0/1 booleans, enum
 * bytes past their last value, out-of-range integers and geometry
 * mismatches all throw instead of yielding garbage.
 *
 * All failures throw SnapshotError; callers at the load boundary
 * translate that into a structured error message. Writers never fail.
 */

#ifndef NOX_SNAPSHOT_IO_HPP
#define NOX_SNAPSHOT_IO_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace nox::snap {

/**
 * What a serialize() pass is feeding. The byte layout is identical in
 * both scopes except that Digest omits per-process / per-configuration
 * state that is deliberately allowed to differ between two equivalent
 * trajectories — the EnergyEvents and NoX mode-residency counters,
 * which the activity kernel clock-gates for retired components, and
 * the network's kernel and observer bookkeeping. A Reader always runs
 * the Snapshot scope, so the omissions live on the write side only
 * and Snapshot scope must stay lossless; Digest scope exists so the
 * state-digest ledger hashes only the canonical, kernel-independent
 * trajectory.
 */
enum class Scope : std::uint8_t
{
    Snapshot,
    Digest,
};

/** Any malformed-snapshot condition: truncation, bad tag, bad value. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace detail {

/** CRC-32C lookup tables: kCrc32cTables[0][b] is the register after
 *  shifting byte b through the reflected Castagnoli polynomial bit by
 *  bit, and table k > 0 advances that by k more zero bytes, so eight
 *  bytes fold in with eight independent lookups (slicing-by-8). */
inline constexpr std::array<std::array<std::uint32_t, 256>, 8>
    kCrc32cTables = [] {
        constexpr std::uint32_t kPoly = 0x82F63B78u; // reflected 0x1EDC6F41
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t b = 0; b < 256; ++b) {
            std::uint32_t c = b;
            for (int i = 0; i < 8; ++i)
                c = (c >> 1) ^ ((c & 1u) ? kPoly : 0u);
            t[0][b] = c;
        }
        for (std::size_t k = 1; k < 8; ++k) {
            for (std::size_t b = 0; b < 256; ++b)
                t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
        }
        return t;
    }();

} // namespace detail

/**
 * CRC-32C (Castagnoli: reflected, init and final XOR 0xFFFFFFFF;
 * check value 0xE3069283 over "123456789"), table-driven eight bytes
 * per step with a byte-wise tail. The simulator's one CRC: it frames
 * every snapshot section (file.hpp), and the link-level wireChecksum()
 * in noc/flit.cpp feeds each flit's 10 wire bytes through it twice
 * per hop on fault-protected links, so it is inline.
 */
inline std::uint32_t
crc32c(const std::uint8_t *data, std::size_t len)
{
    const auto &t = detail::kCrc32cTables;
    std::uint32_t crc = 0xFFFFFFFFu;
    for (; len >= 8; data += 8, len -= 8) {
        std::uint64_t x = crc;
        for (int i = 0; i < 8; ++i)
            x ^= static_cast<std::uint64_t>(data[i]) << (8 * i);
        crc = t[7][x & 0xFFu] ^ t[6][(x >> 8) & 0xFFu] ^
              t[5][(x >> 16) & 0xFFu] ^ t[4][(x >> 24) & 0xFFu] ^
              t[3][(x >> 32) & 0xFFu] ^ t[2][(x >> 40) & 0xFFu] ^
              t[1][(x >> 48) & 0xFFu] ^ t[0][x >> 56];
    }
    for (; len > 0; ++data, --len)
        crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

/**
 * Little-endian append-only byte sink. The stream is the first size()
 * bytes of a buffer grown by doubling, so appending a field is one
 * capacity check and one fixed-size copy: the digest ledger and every
 * checkpoint serialize the whole network through here. (A byte-wise
 * push_back costs a check per byte; vector::insert of a field costs
 * an out-of-line call and measured slower still.)
 */
class Writer
{
  public:
    static constexpr bool kReading = false; ///< see io()

    void u8(std::uint8_t v) { append(&v, 1); }

    void
    u16(std::uint16_t v)
    {
        le(static_cast<std::uint64_t>(v), 2);
    }

    void
    u32(std::uint32_t v)
    {
        le(static_cast<std::uint64_t>(v), 4);
    }

    void u64(std::uint64_t v) { le(v, 8); }

    void
    i32(std::int32_t v)
    {
        u32(static_cast<std::uint32_t>(v));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    /** Bit-exact double round-trip (NaN/±inf safe). */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Append @p v in its type's wire encoding (see WireValue). */
    template <typename T>
    void
    put(const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            boolean(v);
        else if constexpr (std::is_same_v<T, double>)
            f64(v);
        else if constexpr (std::is_same_v<T, std::string>)
            str(v);
        else
            le(static_cast<std::uint64_t>(v), sizeof(T));
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        append(s.data(), s.size());
    }

    void
    bytes(const std::uint8_t *data, std::size_t len)
    {
        append(data, len);
    }

    const std::uint8_t *data() const { return buf_.data(); }
    std::size_t size() const { return len_; }

    std::vector<std::uint8_t>
    take()
    {
        buf_.resize(len_);
        std::vector<std::uint8_t> out = std::move(buf_);
        buf_.clear();
        len_ = 0;
        return out;
    }

    /** Drop the contents but keep the capacity — the digest ledger
     *  reuses one scratch Writer across components so the steady-state
     *  hash path never allocates. */
    void clear() { len_ = 0; }

  private:
    void
    le(std::uint64_t v, int nbytes)
    {
        std::uint8_t b[8];
        for (int i = 0; i < nbytes; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        append(b, static_cast<std::size_t>(nbytes));
    }

    void
    append(const void *src, std::size_t n)
    {
        if (n == 0)
            return;
        if (buf_.size() - len_ < n)
            buf_.resize(std::max({std::size_t{64}, 2 * buf_.size(),
                                  len_ + n}));
        std::memcpy(buf_.data() + len_, src, n);
        len_ += n;
    }

    std::vector<std::uint8_t> buf_; ///< stream + spare room (size = room)
    std::size_t len_ = 0;           ///< bytes of stream
};

/** Bounds-checked little-endian byte source over a borrowed buffer. */
class Reader
{
  public:
    static constexpr bool kReading = true; ///< see io()

    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    std::uint16_t
    u16()
    {
        return static_cast<std::uint16_t>(le(2));
    }

    std::uint32_t
    u32()
    {
        return static_cast<std::uint32_t>(le(4));
    }

    std::uint64_t u64() { return le(8); }

    std::int32_t
    i32()
    {
        return static_cast<std::int32_t>(u32());
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /** Strict: any byte other than 0/1 means the stream desynced. */
    bool
    boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            fail("boolean byte out of range (stream desync)");
        return v != 0;
    }

    /** Read a value written by Writer::put<T>. */
    template <typename T>
    T
    get()
    {
        if constexpr (std::is_same_v<T, bool>)
            return boolean();
        else if constexpr (std::is_same_v<T, double>)
            return f64();
        else if constexpr (std::is_same_v<T, std::string>)
            return str();
        else
            return static_cast<T>(le(sizeof(T)));
    }

    std::string
    str()
    {
        const std::uint64_t len = u64();
        if (len > remaining())
            fail("string length exceeds remaining bytes");
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(len));
        pos_ += static_cast<std::size_t>(len);
        return s;
    }

    void
    bytes(std::uint8_t *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
    }

    /**
     * Read an element count stored as a @p Width integer, and reject
     * it unless that many elements of at least @p min_bytes encoded
     * bytes each still fit in the stream. Read every count that sizes
     * an allocation through here: a corrupt count then fails as a
     * SnapshotError naming its offset instead of escaping from a
     * reserve() as std::bad_alloc or std::length_error.
     */
    template <typename Width = std::uint64_t>
    std::size_t
    count(std::size_t min_bytes)
    {
        const std::size_t at = pos_;
        const std::uint64_t n = le(sizeof(Width));
        if (n > remaining() / min_bytes) {
            throw SnapshotError(
                "element count " + std::to_string(n) + " at offset " +
                std::to_string(at) + " of " + std::to_string(size_) +
                " exceeds the remaining " +
                std::to_string(remaining()) + " byte(s)");
        }
        return static_cast<std::size_t>(n);
    }

    std::size_t remaining() const { return size_ - pos_; }
    std::size_t offset() const { return pos_; }

    /** Call once a section is fully consumed: trailing bytes are
     *  just as much a desync as missing ones. */
    void
    expectEnd() const
    {
        if (pos_ != size_) {
            throw SnapshotError(
                "section has " + std::to_string(size_ - pos_) +
                " unconsumed trailing byte(s) (stream desync)");
        }
    }

    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw SnapshotError(why + " at offset " +
                            std::to_string(pos_) + " of " +
                            std::to_string(size_));
    }

  private:
    void
    need(std::size_t n) const
    {
        if (n > remaining())
            fail("truncated stream (need " + std::to_string(n) +
                 " byte(s))");
    }

    std::uint64_t
    le(int nbytes)
    {
        need(static_cast<std::size_t>(nbytes));
        std::uint64_t v = 0;
        for (int i = 0; i < nbytes; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i])
                 << (8 * i);
        pos_ += static_cast<std::size_t>(nbytes);
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

/** Pack a 4-character tag ("NETW") into its little-endian u32. */
constexpr std::uint32_t
fourcc(const char (&s)[5])
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<std::uint8_t>(s[i]);
    return v;
}

/** Render a fourcc back to text for error messages. */
std::string fourccName(std::uint32_t tag);

// -- Layout primitives ----------------------------------------------
//
// A layout is written once against an archive `ar`: a Writer saves
// each field it names, a Reader loads it and runs the checks on the
// same line. `if constexpr (Ar::kReading)` guards the few steps only a
// load needs (clearing, replaying, rebuilding). The save side of each
// primitive is inline and does what a hand-written save did, so a
// layout's save path compiles to the same Writer calls.

/**
 * Types with a wire encoding of their own: bool (one strict 0/1
 * byte), double (bit-exact), std::string (u64 length + bytes) and the
 * unsigned widths, i32 and i64 as little-endian integers of their own
 * size. Narrower signed types have none: a field stored narrower than
 * it travels names its wire width (ioBounded, ioEnum).
 */
template <typename T>
concept WireValue =
    std::is_same_v<T, bool> || std::is_same_v<T, double> ||
    std::is_same_v<T, std::string> || std::is_same_v<T, std::int32_t> ||
    std::is_same_v<T, std::int64_t> ||
    (std::is_integral_v<T> && std::is_unsigned_v<T>);

/** What a layout sees of a @p T field: const when saving. */
template <typename Ar, typename T>
using Field = std::conditional_t<Ar::kReading, T, const T> &;

/** Load-side check; nothing on save. */
template <typename Ar>
void
check(Ar &ar, bool ok, const char *what)
{
    if constexpr (Ar::kReading) {
        if (!ok)
            ar.fail(what);
    }
}

/** One WireValue field. */
template <typename Ar, typename T>
    requires WireValue<std::remove_const_t<T>>
void
io(Ar &ar, T &v)
{
    if constexpr (Ar::kReading)
        v = ar.template get<T>();
    else
        ar.put(v);
}

/** A component-boundary sanity tag (see fourcc()). */
template <typename Ar>
void
tag(Ar &ar, std::uint32_t t)
{
    std::uint32_t got = t;
    io(ar, got);
    if constexpr (Ar::kReading) {
        if (got != t) {
            ar.fail("component tag mismatch: expected '" + fourccName(t) +
                    "', found '" + fourccName(got) + "'");
        }
    }
}

/** A std::vector<bool> element (only a load sees a proxy). */
inline void
io(Reader &r, std::vector<bool>::reference b)
{
    b = r.boolean();
}

/** Any type with its own serialize()/restore() pair. */
template <typename Ar, typename T>
    requires requires(const T &t, Writer &w) { t.serialize(w); }
void
io(Ar &ar, T &v)
{
    if constexpr (Ar::kReading)
        v.restore(ar);
    else
        v.serialize(ar);
}

/** Several fields, in order. */
template <typename Ar, typename... T>
void
fields(Ar &ar, T &...v)
{
    (io(ar, v), ...);
}

/** std::array and std::pair: their elements, in order. */
template <typename Ar, typename T>
    requires requires { std::tuple_size<std::remove_const_t<T>>::value; }
void
io(Ar &ar, T &t)
{
    std::apply([&ar](auto &...e) { fields(ar, e...); }, t);
}

/** io() as a callable: the default element layout. */
inline constexpr auto ioEach = [](auto &ar, auto &v) { io(ar, v); };
using IoEach = decltype(ioEach);

/** An enum as one byte; a loaded byte above @p last is rejected. */
template <typename Ar, typename E>
void
ioEnum(Ar &ar, E &e, std::remove_const_t<E> last)
{
    auto b = static_cast<std::uint8_t>(e);
    io(ar, b);
    if constexpr (Ar::kReading) {
        if (b > static_cast<std::uint8_t>(last)) {
            ar.fail("enum byte " + std::to_string(b) +
                    " above its last value " +
                    std::to_string(static_cast<unsigned>(last)));
        }
        e = static_cast<E>(b);
    }
}

/** An integer as an i32; a loaded value outside [lo, hi] is rejected
 *  with @p what. */
template <typename Ar, typename T>
void
ioBounded(Ar &ar, T &v, std::int32_t lo, std::int32_t hi,
          const char *what)
{
    auto x = static_cast<std::int32_t>(v);
    io(ar, x);
    check(ar, x >= lo && x <= hi, what);
    if constexpr (Ar::kReading)
        v = static_cast<T>(x);
}

/** A construction-fixed value (an id, a geometry, a presence flag):
 *  saved as is; a load requires the loading side's own @p v. */
template <typename Ar, typename T>
void
ioExpect(Ar &ar, const T &v, const char *what)
{
    T got = v;
    io(ar, got);
    check(ar, got == v, what);
}

/** A u64 count, then each element. A load routes the count through
 *  Reader::count, each element taking at least @p min_bytes, and
 *  rebuilds @p c by push_back. */
template <typename Ar, typename C, typename Each = IoEach>
void
ioSeq(Ar &ar, C &c, std::size_t min_bytes, Each each = {})
{
    if constexpr (Ar::kReading) {
        const std::size_t n = ar.count(min_bytes);
        c = C{};
        if constexpr (requires { c.reserve(n); })
            c.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            typename C::value_type v{};
            each(ar, v);
            c.push_back(std::move(v));
        }
    } else {
        ar.u64(c.size());
        for (const auto &v : c)
            each(ar, v);
    }
}

/** A presence flag, then the value if present. */
template <typename Ar, typename O, typename Each = IoEach>
void
ioOptional(Ar &ar, O &o, Each each = {})
{
    bool present = o.has_value();
    io(ar, present);
    if constexpr (Ar::kReading) {
        o.reset();
        if (present)
            o.emplace();
    }
    if (present)
        each(ar, *o);
}

/** A hash map as a u64 count, then key and each(ar, value) per entry
 *  in ascending key order, so hash order never reaches the stream.
 *  An entry, key included, takes at least @p min_bytes; a load
 *  rejects a repeated key. */
template <typename Ar, typename M, typename Each = IoEach>
void
ioSortedMap(Ar &ar, M &m, std::size_t min_bytes, Each each = {})
{
    if constexpr (Ar::kReading) {
        const std::size_t n = ar.count(min_bytes);
        m.clear();
        for (std::size_t i = 0; i < n; ++i) {
            typename M::key_type key{};
            io(ar, key);
            const auto [at, fresh] = m.try_emplace(key);
            check(ar, fresh, "repeated map key");
            each(ar, at->second);
        }
    } else {
        std::vector<const typename M::value_type *> entries;
        entries.reserve(m.size());
        for (const auto &kv : m)
            entries.push_back(&kv);
        std::sort(entries.begin(), entries.end(),
                  [](auto *x, auto *y) { return x->first < y->first; });
        ar.u64(entries.size());
        for (const auto *kv : entries) {
            io(ar, kv->first);
            each(ar, kv->second);
        }
    }
}

/** A hash set as a u64 count, then its keys in ascending order; a
 *  load rejects a repeated key. */
template <typename Ar, typename S>
void
ioSortedSet(Ar &ar, S &s)
{
    std::vector<typename S::key_type> keys;
    if constexpr (!Ar::kReading) {
        keys.assign(s.begin(), s.end());
        std::sort(keys.begin(), keys.end());
    }
    ioSeq(ar, keys, sizeof(typename S::key_type));
    if constexpr (Ar::kReading) {
        s.clear();
        for (const auto &key : keys)
            check(ar, s.insert(key).second, "repeated set key");
    }
}

} // namespace nox::snap

#endif // NOX_SNAPSHOT_IO_HPP
