#include "cache_key.hpp"

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace ringsim::service {

const char *
codeVersionSalt()
{
    // Bump with any change that can alter a result byte (protocol
    // timing, model coefficients, table formatting, trace
    // generation), with any change to which block a sweep part index
    // names — and with any change to the on-disk entry frame, so
    // pre-checksum files are never half-trusted. A date plus the
    // reason keeps bumps unambiguous.
    return "ringsim-2026-10-18-model-blocks";
}

std::uint64_t
fingerprint64(const std::string &data, std::uint64_t seed)
{
    // FNV-1a over the bytes, then a splitmix64 finalizer so short
    // inputs still diffuse into all 64 bits.
    std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
    for (unsigned char c : data) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return splitmix64Finalize(h);
}

std::string
cacheKey(const std::string &canonical_spec,
         const std::string &extra_salt)
{
    // The salts are framed with their lengths so ("ab", "c") and
    // ("a", "bc") cannot collide.
    std::string salted = strprintf(
        "%zu:%s|%zu:%s|", canonical_spec.size(), canonical_spec.c_str(),
        extra_salt.size(), extra_salt.c_str());
    salted += codeVersionSalt();
    std::uint64_t lo = fingerprint64(salted, 0x5bd1e995973aULL);
    std::uint64_t hi = fingerprint64(salted, 0x27d4eb2f165667c5ULL);
    return strprintf("%016llx%016llx",
                     static_cast<unsigned long long>(hi),
                     static_cast<unsigned long long>(lo));
}

} // namespace ringsim::service
