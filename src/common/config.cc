#include "config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "logging.hh"

namespace xfm
{

namespace
{

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

} // namespace

Config
Config::parseString(const std::string &text)
{
    Config cfg;
    std::istringstream is(text);
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const std::string trimmed = trim(line);
        if (trimmed.empty())
            continue;
        const auto eq = trimmed.find('=');
        if (eq == std::string::npos)
            fatal("config line ", lineno, ": expected 'key = value'");
        const std::string key = trim(trimmed.substr(0, eq));
        const std::string value = trim(trimmed.substr(eq + 1));
        if (key.empty())
            fatal("config line ", lineno, ": empty key");
        cfg.set(key, value);
    }
    return cfg;
}

Config
Config::parseFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal("cannot open config file '", path, "'");
    std::ostringstream ss;
    ss << f.rdbuf();
    return parseString(ss.str());
}

void
Config::set(const std::string &key, const std::string &value)
{
    if (!values_.count(key))
        order_.push_back(key);
    values_[key] = value;
}

void
Config::merge(const Config &other)
{
    for (const auto &key : other.order_)
        set(key, other.values_.at(key));
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) > 0;
}

std::string
Config::getString(const std::string &key,
                  const std::string &fallback) const
{
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t
Config::getU64(const std::string &key, std::uint64_t fallback) const
{
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    errno = 0;
    const auto v = std::strtoull(it->second.c_str(), &end, 0);
    // strtoull negates a leading '-' into a huge value; refuse it.
    if (end == it->second.c_str() || *end != '\0'
        || it->second[0] == '-')
        fatal("config key '", key, "': '", it->second,
              "' is not an unsigned integer");
    // ...and saturates an overflowing value at 2^64 - 1.
    if (errno == ERANGE)
        fatal("config key '", key, "': '", it->second,
              "' is out of range");
    return v;
}

std::uint32_t
Config::getU32(const std::string &key, std::uint32_t fallback) const
{
    const std::uint64_t v = getU64(key, fallback);
    if (v > std::numeric_limits<std::uint32_t>::max())
        fatal("config key '", key, "': '", values_.at(key),
              "' is out of range");
    return static_cast<std::uint32_t>(v);
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        fatal("config key '", key, "': '", it->second,
              "' is not a number");
    // strtod accepts "nan" and "inf" and overflows to inf; no
    // quantity in a config is meaningfully infinite.
    if (!std::isfinite(v))
        fatal("config key '", key, "': '", it->second,
              "' is not a finite number");
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("config key '", key, "': '", it->second,
          "' is not a boolean");
}

std::vector<std::string>
Config::unconsumedKeys() const
{
    std::vector<std::string> out;
    for (const auto &key : order_)
        if (!consumed_.count(key))
            out.push_back(key);
    return out;
}

void
Config::requireAllConsumed(const std::string &prefix) const
{
    std::size_t unused = 0;
    std::string names;
    for (const auto &key : unconsumedKeys()) {
        if (key.rfind(prefix, 0) != 0)
            continue;
        ++unused;
        names += (names.empty() ? "'" : ", '") + key + "'";
    }
    if (unused > 0)
        fatal("unknown config key", unused > 1 ? "s " : " ", names);
}

std::vector<std::string>
Config::keys() const
{
    return order_;
}

} // namespace xfm
