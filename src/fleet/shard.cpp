#include "shard.hpp"

#include "service/cache_key.hpp"
#include "util/logging.hpp"

namespace ringsim::fleet {

namespace {

/**
 * Domain separator ("FLEET001"): keeps the shard spread independent
 * of any structure in how the keys themselves were fingerprinted.
 */
constexpr std::uint64_t kShardSeed = 0x464c454554303031ULL;

} // namespace

std::string
shardKey(const service::JobSpec &spec, const std::string &salt)
{
    return service::cacheKey(spec.canonical().dump(), salt);
}

std::size_t
shardIndex(const std::string &key, std::size_t n)
{
    if (n == 0)
        panic("shardIndex: zero workers");
    return static_cast<std::size_t>(
        service::fingerprint64(key, kShardSeed) % n);
}

std::vector<std::size_t>
failoverOrder(const std::string &key, std::size_t n)
{
    std::vector<std::size_t> order;
    order.reserve(n);
    std::size_t first = shardIndex(key, n);
    for (std::size_t step = 0; step < n; ++step)
        order.push_back((first + step) % n);
    return order;
}

} // namespace ringsim::fleet
