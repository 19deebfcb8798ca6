/** @file JSONL writer and reader (see jsonl.hpp). */

#include "obs/jsonl.hpp"

#include <cmath>

namespace nox::jsonl {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

} // namespace

// ---- Writer ------------------------------------------------------------

void
Writer::name(std::string_view key)
{
    comma();
    line_ += '"';
    line_ += key;
    line_ += "\":";
}

void
Writer::put(double v)
{
    char buf[32];
    line_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void
Writer::put(std::string_view s)
{
    line_ += '"';
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            line_ += '\\';
        } else if (static_cast<unsigned char>(c) < 0x20) {
            line_ += "\\u00";
            line_ += kHexDigits[c >> 4];
            line_ += kHexDigits[c & 0xf];
            continue;
        }
        line_ += c;
    }
    line_ += '"';
}

void
Writer::putHex(std::uint64_t v)
{
    char buf[18] = {'"'};
    for (int i = 16; i >= 1; --i, v >>= 4)
        buf[i] = kHexDigits[v & 0xf];
    buf[17] = '"';
    line_.append(buf, sizeof buf);
}

void
Writer::hex(std::string_view key, std::uint64_t v)
{
    name(key);
    putHex(v);
}

void
Writer::hex(std::string_view key, const std::vector<std::uint64_t> &v)
{
    name(key);
    list(v, [this](std::uint64_t x) { putHex(x); });
}

// ---- Reader ------------------------------------------------------------

Reader::Reader(const std::string &path) : path_(path), in_(path)
{
    if (!in_)
        throw Error("cannot open '" + path + "'");
}

bool
Reader::next()
{
    while (std::getline(in_, text_)) {
        ++line_;
        if (text_.find_first_not_of(" \t\r") != std::string::npos)
            return true;
    }
    if (in_.bad())
        fail("", "read error");
    return false;
}

std::string
Reader::type()
{
    open();
    std::string t;
    field("type", t);
    return t;
}

void
Reader::open()
{
    pos_ = 0;
    key_.clear();
    if (!at('{'))
        fail("", "expected a JSON object");
    ++pos_;
}

void
Reader::close()
{
    if (at(',')) {
        ++pos_;
        std::string extra;
        if (at('"'))
            value(extra);
        if (extra.empty())
            fail(key_, "expected a key after ','");
        fail(extra, "unknown key");
    }
    if (!at('}'))
        fail(key_, "expected ',' or '}' after the value");
    ++pos_;
    skipSpace();
    if (pos_ < text_.size())
        fail(key_, "text after the closing brace");
}

void
Reader::name(std::string_view key)
{
    if (!key_.empty()) {
        if (at('}'))
            fail(key, "missing key");
        if (!at(','))
            fail(key_, "expected ',' or '}' after the value");
        ++pos_;
    }
    std::string found;
    if (at('"'))
        value(found);
    if (found != key) {
        fail(key, found.empty() ? "missing key"
                                : "missing key, found \"" + found +
                                      "\" in its place");
    }
    key_ = key;
    if (!at(':'))
        fail(key_, "expected ':' after the key");
    ++pos_;
}

void
Reader::skipSpace()
{
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r'))
        ++pos_;
}

bool
Reader::at(char c)
{
    skipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
}

void
Reader::tag(std::string_view key, std::string_view v)
{
    std::string got;
    field(key, got);
    if (got != v)
        fail(key, "expected \"" + std::string(v) + "\", found \"" + got + "\"");
}

void
Reader::hex(std::string_view key, std::uint64_t &v)
{
    name(key);
    v = hexValue();
}

void
Reader::hex(std::string_view key, std::vector<std::uint64_t> &v)
{
    name(key);
    array(v, [this](std::uint64_t &x) { x = hexValue(); });
}

std::uint64_t
Reader::hexValue()
{
    std::string s;
    value(s);
    std::uint64_t v = 0;
    const char *end = s.data() + s.size();
    if (s.size() != 16 || std::from_chars(s.data(), end, v, 16).ptr != end)
        fail(key_, "expected a 16-digit hex string, found \"" + s + "\"");
    return v;
}

void
Reader::value(bool &v)
{
    if (!at('0') && !at('1'))
        fail(key_, "expected 0 or 1");
    v = text_[pos_++] == '1';
}

void
Reader::value(double &v)
{
    skipSpace();
    const char *end = text_.data() + text_.size();
    const auto [stop, ec] = std::from_chars(text_.data() + pos_, end, v);
    if (ec != std::errc() || !std::isfinite(v))
        fail(key_, "expected a finite number");
    pos_ = static_cast<std::size_t>(stop - text_.data());
}

void
Reader::value(std::string &v)
{
    if (!at('"'))
        fail(key_, "expected a string");
    v.clear();
    for (++pos_; pos_ < text_.size(); ++pos_) {
        char c = text_[pos_];
        if (c == '"') {
            ++pos_;
            return;
        }
        if (static_cast<unsigned char>(c) < 0x20)
            fail(key_, "control character in a string");
        if (c == '\\') {
            // The Writer's escapes: \" and \\, and \u00XX for control
            // characters.
            const std::string_view rest =
                std::string_view(text_).substr(pos_ + 1);
            unsigned code = 0x80;
            if (rest.starts_with('"') || rest.starts_with('\\')) {
                c = rest[0];
                pos_ += 1;
            } else if (rest.size() > 5 && rest[0] == 'u' &&
                       std::from_chars(rest.data() + 1, rest.data() + 5,
                                       code, 16)
                               .ptr == rest.data() + 5 &&
                       code < 0x80) {
                c = static_cast<char>(code);
                pos_ += 5;
            } else {
                fail(key_, "unsupported escape in a string");
            }
        }
        v += c;
    }
    fail(key_, "the line ends inside a string");
}

void
Reader::fail(std::string_view key, const std::string &why,
             std::size_t line) const
{
    std::string msg =
        path_ + ":" + std::to_string(line ? line : line_) + ": ";
    if (!key.empty())
        msg += "\"" + std::string(key) + "\": ";
    throw Error(msg + why);
}

} // namespace nox::jsonl
