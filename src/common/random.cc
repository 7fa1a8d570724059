#include "random.hh"

#include <cmath>
#include <limits>

namespace xfm
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** The uniformReal() value whose 53-bit integer is @p m. */
double
unitOf(std::uint64_t m)
{
    return static_cast<double>(m) * 0x1.0p-53;
}

/**
 * Rng::zipf's continuous rank for the uniform draw @p u, theta > 0:
 * inverse-CDF on the bounded Pareto approximation of the zipf rank
 * distribution; adequate for locality generation.
 */
double
zipfRank(std::uint64_t n, double theta, double u)
{
    const double alpha = 1.0 - theta;
    if (std::abs(alpha) < 1e-9)
        return std::pow(static_cast<double>(n), u);
    const double nn = std::pow(static_cast<double>(n), alpha);
    return std::pow(u * (nn - 1.0) + 1.0, 1.0 / alpha);
}

/** Rng::zipf's result for the uniform draw @p u, theta > 0. */
std::uint64_t
zipfIndex(std::uint64_t n, double theta, double u)
{
    auto idx = static_cast<std::uint64_t>(zipfRank(n, theta, u)) - 0;
    if (idx >= n)
        idx = n - 1;
    return idx;
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &w : state_)
        w = splitmix64(s);
}

std::uint64_t
Rng::uniformRange(std::uint64_t lo, std::uint64_t hi)
{
    XFM_ASSERT(lo <= hi, "uniformRange requires lo <= hi");
    return lo + uniformInt(hi - lo + 1);
}

std::uint64_t
Rng::zipf(std::uint64_t n, double theta)
{
    XFM_ASSERT(n > 0, "zipf requires n > 0");
    if (theta <= 0.0)
        return uniformInt(n);
    return zipfIndex(n, theta, uniformReal());
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    XFM_ASSERT(n > 0, "zipf requires n > 0");
    XFM_ASSERT(n <= maxN, "ZipfSampler table is O(n): n = ", n,
               " exceeds ", maxN);
    if (theta <= 0.0)
        return;
    constexpr std::uint64_t top = (1ull << 53) - 1;
    const auto rank = [&](std::uint64_t m) {
        return zipfRank(n, theta, unitOf(m));
    };
    for (std::uint64_t k = 1; k < n; ++k) {
        const double kd = static_cast<double>(k);
        // Step k: the first m whose rank reaches k (top + 1 if none).
        std::uint64_t lo = 0;
        std::uint64_t hi = top + 1;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (rank(mid) >= kd)
                hi = mid;
            else
                lo = mid + 1;
        }
        const std::uint64_t t = lo;
        // Widen its window until the edges' ranks are 64 ULPs clear
        // of k, or the window reaches the end of the domain.
        const double margin =
            64 * (std::nextafter(kd, std::numeric_limits<double>::max())
                  - kd);
        Window w{t, std::min(t, top)};
        for (std::uint64_t d = 1; w.lo > 0 && rank(w.lo) > kd - margin;
             d *= 2)
            w.lo = t > d ? t - d : 0;
        for (std::uint64_t d = 1; w.hi < top && rank(w.hi) < kd + margin;
             d *= 2)
            w.hi = std::min(t + d, top);
        windows_.push_back(w);
    }
    // For n == 1 one window spans every m, so each draw is exact.
    if (windows_.empty())
        windows_.push_back({0, top});

    // Widen the windows until both edges are nondecreasing in k and
    // the first starts at 0. A draw m then has a last window j with
    // lo <= m. It lies in no later window; if m > hi of window j, it
    // lies in no earlier one either, and zipf returns j + 1 for it.
    for (std::size_t j = windows_.size() - 1; j-- > 0;)
        windows_[j].lo = std::min(windows_[j].lo, windows_[j + 1].lo);
    windows_[0].lo = 0;
    for (std::size_t j = 1; j < windows_.size(); ++j)
        windows_[j].hi = std::max(windows_[j].hi, windows_[j - 1].hi);

    // 16 guide buckets per step leave about one bucket in 16 crossed.
    unsigned bits = 4;
    while ((1ull << bits) < 16 * windows_.size())
        ++bits;
    shift_ = 53 - bits;
    guide_.resize(std::size_t{1} << bits);
    std::size_t j = 0;
    for (std::size_t b = 0; b < guide_.size(); ++b) {
        const std::uint64_t start = std::uint64_t{b} << shift_;
        const std::uint64_t end = start + ((1ull << shift_) - 1);
        while (j + 1 < windows_.size() && windows_[j + 1].lo <= start)
            ++j;
        const bool clear = windows_[j].hi < start
            && (j + 1 == windows_.size() || windows_[j + 1].lo > end);
        guide_[b] = static_cast<std::uint16_t>(clear ? j + 1 : j | crossed);
    }
}

std::uint64_t
ZipfSampler::search(std::uint64_t m, std::size_t j) const
{
    while (j + 1 < windows_.size() && windows_[j + 1].lo <= m)
        ++j;
    if (m <= windows_[j].hi)
        return zipfIndex(n_, theta_, unitOf(m));
    return j + 1;
}

} // namespace xfm
