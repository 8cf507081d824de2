/**
 * @file
 * Deterministic job-to-worker sharding.
 *
 * The shard of a job is a pure function of its shard key: the 128-bit
 * canonical-spec cache key (service/cache_key) under the cache salt.
 * Equal specs always route to the same worker, so each worker's
 * memory cache warms on exactly its shard of the spec space and a
 * repeat submission lands on the cache that already holds it. The
 * failover order (shard, shard+1, ... mod n) is equally
 * deterministic, so every coordinator — and every multi-endpoint
 * ringsim_submit client — agrees on which worker serves a key when
 * its primary is dead, provided both compute the key with
 * shardKey() under the same salt.
 */

#ifndef RINGSIM_FLEET_SHARD_HPP
#define RINGSIM_FLEET_SHARD_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "service/job.hpp"

namespace ringsim::fleet {

/**
 * The shard key of @p spec under the cache salt @p salt: exactly the
 * key a daemon with that salt memoizes @p spec under. The one shard
 * key function — ringsim_fleetd and ringsim_submit --service both
 * call it, so they place every job on the same worker.
 */
std::string shardKey(const service::JobSpec &spec,
                     const std::string &salt);

/**
 * The worker index in [0, n) that owns @p key (a cache key or any
 * identity string). Pure; @p n must be nonzero.
 */
std::size_t shardIndex(const std::string &key, std::size_t n);

/**
 * The deterministic failover order for @p key over @p n workers:
 * its shard first, then each successor mod n, every index exactly
 * once.
 */
std::vector<std::size_t> failoverOrder(const std::string &key,
                                       std::size_t n);

} // namespace ringsim::fleet

#endif // RINGSIM_FLEET_SHARD_HPP
