/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Simulation runs must be exactly reproducible from a seed, so all
 * stochastic choices in ringsim (trace generation, page placement) go
 * through this xoshiro256** implementation rather than std::mt19937 or
 * rand(); the standard distributions are not bit-stable across library
 * implementations, so we also provide our own distribution helpers.
 */

#ifndef RINGSIM_UTIL_RNG_HPP
#define RINGSIM_UTIL_RNG_HPP

#include <array>
#include <cstdint>

namespace ringsim {

/**
 * The splitmix64 output finalizer: a bijective 64-bit mix, bit-stable
 * on every platform. Callers apply their own pre-add (splitmix64's
 * golden-ratio increment, or a keyed combination); this is the shared
 * tail behind RNG seeding, job seeds, fault schedules and cache keys.
 */
inline std::uint64_t
splitmix64Finalize(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** 1.0 generator (Blackman & Vigna, public domain algorithm)
 * with splitmix64 seeding. Bit-reproducible on every platform.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial: true with probability p. */
    bool chance(double p);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /**
     * Zipf-like rank selection over [0, n): probability of rank r is
     * proportional to 1/(r+1)^alpha. Used for locality-skewed access
     * streams in the synthetic trace generators.
     */
    std::uint64_t nextZipf(std::uint64_t n, double alpha);

    /** Geometric number of failures before a success with parameter p. */
    std::uint64_t nextGeometric(double p);

    /**
     * Fork a child generator whose stream is independent of, but fully
     * determined by, this generator's seed and the given stream id.
     * Lets each simulated processor own a private stream.
     */
    Rng fork(std::uint64_t stream_id) const;

  private:
    std::array<std::uint64_t, 4> state_;
    std::uint64_t seed_;
};

} // namespace ringsim

#endif // RINGSIM_UTIL_RNG_HPP
