/**
 * @file
 * The one JSONL dialect of every artifact a run writes: one compact
 * JSON object per line, `{"key":value,...}`, no spaces.
 *
 * As with snapshots (snapshot/io.hpp), each record kind has one
 * layout: a function template that names each key once, in line
 * order, and runs over a Writer to save or over a Reader to load, so
 * a key cannot be written one way and read another. Steps only a load
 * needs go under `if constexpr (Ar::kReading)`.
 *
 * Values follow the field's type: integers in decimal (bool as 0/1),
 * doubles in their shortest round-trip form (std::to_chars, so a
 * written value reads back exactly), strings with `"`, `\` and control
 * characters escaped, hex() words as 16-digit hex strings, and a
 * std::vector as an array.
 *
 * The Reader walks a line in layout order and is strict: a missing,
 * repeated, unknown, mistyped or out-of-range key, a line that ends
 * early, and text after a value or after the closing brace each throw
 * Error naming `path:line` and the key. Integers parse into the
 * field's own type (no sign for unsigned, no fraction, no overflow);
 * doubles must be finite. Whitespace between tokens is accepted, so
 * the spaced `{"k": v, ...}` lines that earlier builds wrote for
 * ledgers, profiles and heartbeats still load. Blank lines are skipped.
 */

#ifndef NOX_OBS_JSONL_HPP
#define NOX_OBS_JSONL_HPP

#include <charconv>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace nox::jsonl {

/** A malformed artifact: what() reads `path:line: "key": why`. */
class Error : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Appends records to a stream, one line each. */
class Writer
{
  public:
    static constexpr bool kReading = false; ///< see the file comment

    explicit Writer(std::ostream &os) : os_(os) {}

    /** Write one record: `{`, the keys @p fill names, `}` and `\n`. */
    template <typename Fill>
    void
    record(Fill &&fill)
    {
        line_.assign(1, '{');
        fill();
        line_ += "}\n";
        os_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    }

    template <typename T>
    void
    field(std::string_view key, const T &v)
    {
        name(key);
        put(v);
    }

    /** A key whose value names the record kind. */
    void tag(std::string_view key, std::string_view v) { field(key, v); }

    void hex(std::string_view key, std::uint64_t v);
    void hex(std::string_view key, const std::vector<std::uint64_t> &v);

    /** An array of objects; @p each names one element's keys. */
    template <typename C, typename Each>
    void
    objects(std::string_view key, const C &c, Each each)
    {
        name(key);
        list(c, [&](const auto &v) {
            line_ += '{';
            each(v);
            line_ += '}';
        });
    }

    /** A load-side check: nothing to do on save. */
    void check(bool, std::string_view, const char *) {}

  private:
    void
    comma()
    {
        if (line_.back() != '{' && line_.back() != '[')
            line_ += ',';
    }

    void name(std::string_view key);
    void putHex(std::uint64_t v);
    void put(bool v) { line_ += v ? '1' : '0'; }
    void put(double v);
    void put(std::string_view s);
    void put(const char *s) { put(std::string_view(s)); }

    template <std::integral T>
    void
    put(T v)
    {
        char buf[24];
        line_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }

    template <typename T>
    void
    put(const std::vector<T> &v)
    {
        list(v, [this](const T &x) { put(x); });
    }

    /** `[`, each element written by @p each, `]`. */
    template <typename C, typename Each>
    void
    list(const C &c, Each each)
    {
        line_ += '[';
        for (const auto &v : c) {
            comma();
            each(v);
        }
        line_ += ']';
    }

    std::ostream &os_;
    std::string line_;
};

/** Reads a JSONL file line by line, each line with a layout. */
class Reader
{
  public:
    static constexpr bool kReading = true; ///< see the file comment

    /** Open @p path; Error when it cannot be read. */
    explicit Reader(const std::string &path);

    /** Move to the next non-blank line; false at the end of the file. */
    bool next();

    std::size_t line() const { return line_; }

    /** The line's leading "type" value, which its layout then reads
     *  again: a loader picks a record's layout with it. */
    std::string type();

    /** Read the current line with a layout: `{`, the keys @p fill
     *  names in order, `}`, and nothing after it. */
    template <typename Fill>
    void
    record(Fill &&fill)
    {
        open();
        fill();
        close();
    }

    template <typename T>
    void
    field(std::string_view key, T &v)
    {
        name(key);
        value(v);
    }

    /** A key whose value must be @p v. */
    void tag(std::string_view key, std::string_view v);

    void hex(std::string_view key, std::uint64_t &v);
    void hex(std::string_view key, std::vector<std::uint64_t> &v);

    void
    check(bool ok, std::string_view key, const char *why) const
    {
        if (!ok)
            fail(key, why);
    }

    /** Throw Error naming @p line (0: the current line) and @p key. */
    [[noreturn]] void fail(std::string_view key, const std::string &why,
                           std::size_t line = 0) const;

  private:
    void open();
    void close();
    /** The separator before @p key, then `"key":`. */
    void name(std::string_view key);
    void skipSpace();
    /** Skip whitespace; true when the next character is @p c. */
    bool at(char c);

    void value(bool &v);
    void value(double &v);
    void value(std::string &v);
    std::uint64_t hexValue();

    template <std::integral T>
    void
    value(T &v)
    {
        skipSpace();
        const char *end = text_.data() + text_.size();
        const auto [stop, ec] = std::from_chars(text_.data() + pos_, end, v);
        if (ec != std::errc()) {
            fail(key_, "expected an integer in " +
                           std::to_string(std::numeric_limits<T>::min()) +
                           ".." +
                           std::to_string(std::numeric_limits<T>::max()));
        }
        pos_ = static_cast<std::size_t>(stop - text_.data());
    }

    template <typename T>
    void
    value(std::vector<T> &v)
    {
        array(v, [this](T &x) { value(x); });
    }

    /** `[`, elements read by @p each, `]`. */
    template <typename T, typename Each>
    void
    array(std::vector<T> &v, Each each)
    {
        if (!at('['))
            fail(key_, "expected an array");
        ++pos_;
        v.clear();
        while (!at(']')) {
            if (!v.empty() && !at(','))
                fail(key_, "expected ',' or ']' in the array");
            pos_ += v.empty() ? 0 : 1;
            each(v.emplace_back());
        }
        ++pos_;
    }

    std::string path_;
    std::ifstream in_;
    std::string text_; ///< the current line
    std::size_t line_ = 0;
    std::size_t pos_ = 0; ///< read position in text_
    std::string key_;     ///< the key being read, for messages
};

/** Run @p body over a Reader of @p path. @return false with @p error
 *  set when the file cannot be read or a line is malformed. */
template <typename Body>
bool
load(const std::string &path, std::string &error, Body &&body)
{
    try {
        Reader r(path);
        body(r);
        return true;
    } catch (const Error &e) {
        error = e.what();
        return false;
    }
}

} // namespace nox::jsonl

#endif // NOX_OBS_JSONL_HPP
