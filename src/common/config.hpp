/**
 * @file
 * Simple key=value configuration store.
 *
 * Every benchmark and example binary accepts `key=value` pairs on the
 * command line (and `--file <path>` to load the same syntax from a
 * file). Typed getters with defaults keep call sites terse; unknown
 * keys can be audited with unusedKeys() so typos fail loudly.
 *
 * This is the one place where a value's text turns into a number, by
 * the JSONL reader's rules (obs/jsonl.hpp): one whole decimal number,
 * a '-' only on a signed integer, an exponent or fraction only on a
 * double, and a double finite.
 */

#ifndef NOX_COMMON_CONFIG_HPP
#define NOX_COMMON_CONFIG_HPP

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace nox {

/** Mutable key=value configuration with typed accessors. */
class Config
{
  public:
    Config() = default;

    /**
     * Parse command-line arguments of the form key=value. The token
     * `--file <path>` loads a config file in place. Returns leftover
     * positional arguments (tokens without '=').
     */
    std::vector<std::string> parseArgs(int argc, const char *const *argv);

    /** Load `key = value` lines from a file ('#' starts a comment). */
    void loadFile(const std::string &path);

    /** Set (or overwrite) a key. A string literal stores its text
     *  (without its own overload it would convert to bool). */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, const char *value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** True if the key was explicitly set. */
    bool has(const std::string &key) const;

    /** Typed getters; fall back to @p def when the key is absent. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    bool getBool(const std::string &key, bool def = false) const;

    /**
     * Value of @p key in [@p lo, @p hi] as T, the type of the field it
     * sets (int, std::int64_t, std::uint64_t), or @p def when the key
     * is absent. Anything else stops the run with `fatal: <key>=<value>
     * ...` naming the range: nothing is narrowed.
     */
    template <std::integral T = std::int64_t>
    T getInt(const std::string &key, T def = 0,
             T lo = std::numeric_limits<T>::min(),
             T hi = std::numeric_limits<T>::max()) const;
    std::uint64_t getUint(const std::string &key, std::uint64_t def = 0,
                          std::uint64_t lo = 0,
                          std::uint64_t hi = UINT64_MAX) const
    {
        return getInt(key, def, lo, hi);
    }
    /** Finite double; otherwise as getInt. */
    double getDouble(const std::string &key, double def = 0.0,
                     double lo = std::numeric_limits<double>::lowest(),
                     double hi = std::numeric_limits<double>::max()) const;

    /** Parse a comma-separated list of finite doubles. */
    std::vector<double> getDoubleList(const std::string &key) const;

    /** Parse a comma-separated list of strings (empty iff the key is
     *  absent; `key=` with no elements is a fatal config error). */
    std::vector<std::string> getStringList(const std::string &key) const;

    /** Keys that were set but never read (likely typos). */
    std::vector<std::string> unusedKeys() const;

    /**
     * Fatal error if any key was set but never read. Call after all
     * getters have run so a typo (`fault_sede=...`) or an unknown key
     * aborts the run with the full offender list instead of silently
     * no-opping a fault campaign or checkpoint config.
     */
    void requireAllUsed(const std::string &context) const;

    /** All key=value pairs, sorted by key (for reproducibility logs). */
    std::vector<std::pair<std::string, std::string>> items() const;

  private:
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> values_;
    mutable std::set<std::string> touched_;
};

} // namespace nox

#endif // NOX_COMMON_CONFIG_HPP
