/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the simulator draw from Rng so runs
 * are reproducible from a single seed. The generator is
 * xoshiro256** (public-domain construction by Blackman & Vigna),
 * implemented here from the published recurrence.
 */

#ifndef XFM_COMMON_RANDOM_HH
#define XFM_COMMON_RANDOM_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace xfm
{

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of a single 64-bit value. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Start from a raw xoshiro256** state (not all zero). */
    explicit Rng(const std::array<std::uint64_t, 4> &state)
        : state_(state)
    {}

    /** Same state: both generators produce the same sequence. */
    bool operator==(const Rng &) const = default;

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = std::rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        XFM_ASSERT(bound > 0, "uniformInt bound must be positive");
        // Rejection sampling to remove modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1): the top 53 bits of next(). */
    double
    uniformReal()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /**
     * Zipf-like integer with skew theta, from one uniformReal().
     *
     * For theta <= 0 this is uniformInt(n). Otherwise it inverts the
     * CDF of a continuous bounded Pareto over [1, n) and truncates,
     * so the result lies in [1, n - 1] (0 only when n == 1): the
     * rank is never shifted down to start at 0, and 0 is never drawn.
     */
    std::uint64_t zipf(std::uint64_t n, double theta);

  private:
    std::array<std::uint64_t, 4> state_;
};

/**
 * Rng::zipf(n, theta) for one fixed (n, theta), drawn from a table.
 *
 * Every draw returns exactly what Rng::zipf would return from the
 * same generator state, and consumes the same single next() (for
 * theta <= 0 it calls uniformInt, as Rng::zipf does). zipf's result
 * is a nondecreasing step function of the 53-bit integer m behind
 * uniformReal(), so the table holds, for each step k in [1, n), the
 * m at which the rank reaches k. Around each step lies a guard window
 * of m whose computed rank is within 64 ULPs of k; draws inside a
 * window evaluate zipf's formula directly, so libm rounding near a
 * step can never change a result. A guide array over the top bits of
 * m holds the result itself for every bucket that no step crosses
 * (all but about one in 16) and the first candidate step for the
 * rest. The table is O(n).
 */
class ZipfSampler
{
  public:
    /** Largest n a sampler accepts. */
    static constexpr std::uint64_t maxN = 4096;

    /** Guard window [lo, hi] of m around one step. */
    struct Window
    {
        std::uint64_t lo;
        std::uint64_t hi;
    };

    ZipfSampler(std::uint64_t n, double theta);

    /** The window around step k is windows()[k - 1] (n >= 2). */
    const std::vector<Window> &windows() const { return windows_; }

    std::uint64_t
    operator()(Rng &rng) const
    {
        if (guide_.empty())
            return rng.uniformInt(n_);
        const std::uint64_t m = rng.next() >> 11;
        const std::uint16_t g = guide_[m >> shift_];
        if (g & crossed)
            return search(m, g & ~crossed);
        return g;
    }

  private:
    /** Guide flag: a step or window crosses the bucket. */
    static constexpr std::uint16_t crossed = 0x8000;

    /** The draw for @p m, searching from step @p j. */
    std::uint64_t search(std::uint64_t m, std::size_t j) const;

    std::uint64_t n_;
    double theta_;
    unsigned shift_ = 0;
    std::vector<Window> windows_;
    std::vector<std::uint16_t> guide_; ///< empty for theta <= 0
};

} // namespace xfm

#endif // XFM_COMMON_RANDOM_HH
