/**
 * @file
 * Minimal key=value configuration parser for the simulator CLI.
 *
 * Format: one `key = value` per line; `#` starts a comment; blank
 * lines ignored. Keys are dotted lowercase paths
 * (e.g. `sfm.promotion_rate`). Typed getters record which keys were
 * consumed so unknown keys (typos, retired options) fail loudly.
 */

#ifndef XFM_COMMON_CONFIG_HH
#define XFM_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace xfm
{

/** Parsed configuration with typed, default-aware access. */
class Config
{
  public:
    /** Parse from text. @throws FatalError on malformed lines. */
    static Config parseString(const std::string &text);

    /** Parse a file. @throws FatalError if unreadable/malformed. */
    static Config parseFile(const std::string &path);

    /** Set @p key as if parsed from `key = value` (last one wins). */
    void set(const std::string &key, const std::string &value);

    /** set() every key of @p other, in its order. */
    void merge(const Config &other);

    /** True if the key was present in the input. */
    bool has(const std::string &key) const;

    /** Typed getters; return @p fallback when the key is absent.
     *  @throws FatalError when the value does not parse, does not
     *  fit the type (getU64 past 2^64 - 1, getU32 past 2^32 - 1),
     *  or is not finite (getDouble refuses nan and inf). */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    std::uint64_t getU64(const std::string &key,
                         std::uint64_t fallback = 0) const;
    std::uint32_t getU32(const std::string &key,
                         std::uint32_t fallback = 0) const;
    double getDouble(const std::string &key,
                     double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    /** Keys present in the input but never read by any getter. */
    std::vector<std::string> unconsumedKeys() const;

    /**
     * Fail unless every parsed key (starting with @p prefix) was
     * read by a getter. A parser passes its own prefix, so a typo
     * under it fails even if the caller never checks the rest.
     * @throws FatalError naming each unread key.
     */
    void requireAllConsumed(const std::string &prefix = "") const;

    /** All parsed keys in order of first appearance. */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> order_;
    mutable std::set<std::string> consumed_;
};

/** A value-initialized @p T: the default `base` of every
 *  `static T fromConfig(const Config &, T base)`. Inside T's own
 *  definition GCC 12 rejects a plain `= {}` there. */
template <typename T>
T
defaults()
{
    return T{};
}

} // namespace xfm

#endif // XFM_COMMON_CONFIG_HH
