#include "rng.hpp"

#include <cmath>

#include "logging.hpp"

namespace ringsim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    return splitmix64Finalize(x);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : seed_(seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound == 0)
        panic("Rng::nextBounded called with bound 0");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::nextDouble()
{
    // 53 high-quality mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        panic("Rng::nextRange: lo > hi");
    return lo + nextBounded(hi - lo + 1);
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double alpha)
{
    if (n == 0)
        panic("Rng::nextZipf called with n == 0");
    if (n == 1)
        return 0;
    // Inverse-CDF approximation via the continuous analogue; adequate
    // for shaping locality and cheap enough for per-reference use.
    if (alpha == 1.0) {
        double u = nextDouble();
        double r = std::exp(u * std::log(static_cast<double>(n))) - 1.0;
        auto idx = static_cast<std::uint64_t>(r);
        return idx >= n ? n - 1 : idx;
    }
    double u = nextDouble();
    double one_minus = 1.0 - alpha;
    double max_cdf = std::pow(static_cast<double>(n), one_minus);
    double r = std::pow(u * (max_cdf - 1.0) + 1.0, 1.0 / one_minus) - 1.0;
    auto idx = static_cast<std::uint64_t>(r);
    return idx >= n ? n - 1 : idx;
}

std::uint64_t
Rng::nextGeometric(double p)
{
    if (p <= 0.0 || p > 1.0)
        panic("Rng::nextGeometric: p out of (0,1]");
    if (p == 1.0)
        return 0;
    double u = nextDouble();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return static_cast<std::uint64_t>(std::log(u) / std::log(1.0 - p));
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    // Mix the parent seed with the stream id through splitmix64 so
    // sibling streams are decorrelated.
    std::uint64_t s = seed_ ^ (0xd1342543de82ef95ULL * (stream_id + 1));
    std::uint64_t child_seed = splitmix64(s);
    return Rng(child_seed);
}

} // namespace ringsim
