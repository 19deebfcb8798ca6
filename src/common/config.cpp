#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/log.hpp"

namespace nox {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** @p text as one whole T by jsonl::Reader's rules (a double finite). */
template <typename T>
bool
parseWhole(const std::string &text, T &v)
{
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    return ec == std::errc() && stop == end;
}

/** The value @p text of @p key as a T in [@p lo, @p hi], or fatal. */
template <typename T>
T
readNumber(const std::string &key, const std::string &text, T lo, T hi)
{
    T v{};
    if (parseWhole(text, v) && lo <= v && v <= hi)
        return v;
    // Digits T or the range cannot hold are out of range (an integer
    // key takes plain digits only); anything else is not a number.
    long double wide = 0;
    const bool number =
        parseWhole(text, wide) &&
        (std::is_floating_point_v<T> ||
         text.find_first_not_of("-0123456789") == std::string::npos);
    std::ostringstream range;
    range << lo;
    if (std::is_floating_point_v<T> && hi == std::numeric_limits<T>::max())
        range << " or more";
    else
        range << ".." << hi;
    fatal(key, "=", text,
          number                   ? " is out of range"
          : std::is_integral_v<T> ? " is not an integer"
                                   : " is not a finite number",
          " (valid: ", range.str(), ")");
}

} // namespace

std::vector<std::string>
Config::parseArgs(int argc, const char *const *argv)
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--file") {
            if (i + 1 >= argc)
                fatal("--file requires a path argument");
            loadFile(argv[++i]);
            continue;
        }
        if (arg == "--resume") {
            if (i + 1 >= argc)
                fatal("--resume requires a snapshot path argument");
            set("resume", argv[++i]);
            continue;
        }
        if (arg == "--progress") {
            set("progress", true);
            continue;
        }
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
            positional.push_back(arg);
            continue;
        }
        set(trim(arg.substr(0, eq)), trim(arg.substr(eq + 1)));
    }
    return positional;
}

void
Config::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file: ", path);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal(path, ":", lineno, ": expected key=value, got '", line,
                  "'");
        set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, const char *value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << value;
    values_[key] = oss.str();
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

bool
Config::has(const std::string &key) const
{
    // A presence check counts as a read for the unused-key audit: the
    // caller demonstrably knows about the key.
    if (values_.count(key) == 0)
        return false;
    touched_.insert(key);
    return true;
}

const std::string *
Config::find(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    touched_.insert(key);
    return &it->second;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const std::string *v = find(key);
    return v ? *v : def;
}

template <std::integral T>
T
Config::getInt(const std::string &key, T def, T lo, T hi) const
{
    const std::string *v = find(key);
    return v ? readNumber(key, *v, lo, hi) : def;
}

template int Config::getInt(const std::string &, int, int, int) const;
template std::int64_t Config::getInt(const std::string &, std::int64_t,
                                     std::int64_t, std::int64_t) const;
template std::uint64_t Config::getInt(const std::string &, std::uint64_t,
                                      std::uint64_t, std::uint64_t) const;

double
Config::getDouble(const std::string &key, double def, double lo,
                  double hi) const
{
    const std::string *v = find(key);
    return v ? readNumber(key, *v, lo, hi) : def;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const std::string *v = find(key);
    if (!v)
        return def;
    std::string s = *v;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    fatal("config key '", key, "' is not a boolean: '", *v, "'");
}

std::vector<double>
Config::getDoubleList(const std::string &key) const
{
    std::vector<double> out;
    for (const auto &tok : getStringList(key)) {
        if (!parseWhole(tok, out.emplace_back()))
            fatal(key, "=", *find(key), " has an element that is not a "
                  "finite number: '", tok, "'");
    }
    return out;
}

std::vector<std::string>
Config::getStringList(const std::string &key) const
{
    std::vector<std::string> out;
    const std::string *v = find(key);
    if (!v)
        return out;
    std::stringstream ss(*v);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
        tok = trim(tok);
        if (!tok.empty())
            out.push_back(tok);
    }
    if (out.empty())
        fatal("config key '", key, "' is an empty list");
    return out;
}

std::vector<std::string>
Config::unusedKeys() const
{
    std::vector<std::string> out;
    for (const auto &[k, v] : values_) {
        if (!touched_.count(k))
            out.push_back(k);
    }
    return out;
}

void
Config::requireAllUsed(const std::string &context) const
{
    const std::vector<std::string> unused = unusedKeys();
    if (unused.empty())
        return;
    std::ostringstream oss;
    for (const auto &k : unused)
        oss << "\n  " << k << " = " << values_.at(k);
    fatal(context, ": unknown config key(s) — misspelled or not "
          "supported by this tool:", oss.str());
}

std::vector<std::pair<std::string, std::string>>
Config::items() const
{
    return {values_.begin(), values_.end()};
}

} // namespace nox
