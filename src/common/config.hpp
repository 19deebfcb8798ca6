/**
 * @file
 * Simple key=value configuration store.
 *
 * Every benchmark and example binary accepts `key=value` pairs on the
 * command line (and `--file <path>` to load the same syntax from a
 * file). Typed getters with defaults keep call sites terse; unknown
 * keys can be audited with unusedKeys() so typos fail loudly.
 */

#ifndef NOX_COMMON_CONFIG_HPP
#define NOX_COMMON_CONFIG_HPP

#include <cstdint>
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

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, double value);
    void set(const std::string &key, bool value);

    /** True if the key was explicitly set. */
    bool has(const std::string &key) const;

    /** Typed getters; fall back to @p def when the key is absent. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t def = 0) const;
    std::uint64_t getUint(const std::string &key,
                          std::uint64_t def = 0) const;
    double getDouble(const std::string &key, double def = 0.0) const;
    bool getBool(const std::string &key, bool def = false) const;

    /** Parse a comma-separated list of doubles. */
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

/** Fatal error naming config key @p key and its valid range unless
 *  @p lo <= @p v <= @p hi. */
void checkRange(const char *key, std::int64_t v, std::int64_t lo,
                std::int64_t hi);

} // namespace nox

#endif // NOX_COMMON_CONFIG_HPP
