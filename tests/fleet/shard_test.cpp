/**
 * @file
 * Tests of the deterministic sharding layer and fleet configuration
 * validation. The shard function is load-bearing for correctness
 * (coordinator and multi-endpoint clients must agree on placement)
 * and for performance (equal specs must reuse one warm cache), so
 * determinism and full-permutation failover get explicit coverage.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/fleet/fleet_config.hpp"
#include "src/fleet/shard.hpp"
#include "src/service/cache_key.hpp"
#include "src/service/job.hpp"
#include "src/util/json.hpp"

namespace ringsim::fleet {
namespace {

TEST(Shard, DeterministicAndInRange)
{
    for (std::size_t n : {1u, 2u, 3u, 7u}) {
        for (int k = 0; k < 50; ++k) {
            std::string key = "spec-" + std::to_string(k);
            std::size_t first = shardIndex(key, n);
            EXPECT_LT(first, n);
            EXPECT_EQ(first, shardIndex(key, n))
                << "same key, same fleet size, different shard";
        }
    }
}

TEST(Shard, SingleWorkerFleetAlwaysShardZero)
{
    EXPECT_EQ(shardIndex("anything", 1), 0u);
    EXPECT_EQ(failoverOrder("anything", 1),
              std::vector<std::size_t>{0});
}

TEST(Shard, FailoverOrderIsAFullPermutationStartingAtTheShard)
{
    for (std::size_t n : {2u, 3u, 5u}) {
        for (int k = 0; k < 20; ++k) {
            std::string key = "job-" + std::to_string(k);
            std::vector<std::size_t> order = failoverOrder(key, n);
            ASSERT_EQ(order.size(), n);
            EXPECT_EQ(order.front(), shardIndex(key, n));
            std::set<std::size_t> seen(order.begin(), order.end());
            EXPECT_EQ(seen.size(), n)
                << "failover order visits some worker twice";
            // Successors wrap modulo n: a dead primary always has a
            // well-defined, agreed-upon backup.
            for (std::size_t i = 1; i < n; ++i)
                EXPECT_EQ(order[i], (order[i - 1] + 1) % n);
        }
    }
}

TEST(Shard, SpreadsKeysAcrossWorkers)
{
    // Not a statistical test — just proof the hash is not constant:
    // 200 distinct keys over 4 shards must touch every shard.
    std::set<std::size_t> touched;
    for (int k = 0; k < 200; ++k)
        touched.insert(
            shardIndex("canonical-spec-" + std::to_string(k), 4));
    EXPECT_EQ(touched.size(), 4u);
}

TEST(Shard, ShardKeyIsTheSaltedCacheKey)
{
    // Coordinator placement must not move: shardKey is exactly the
    // cache key a daemon with that salt memoizes the spec under, so
    // ringsim_fleetd (salt = its --salt) and ringsim_submit --service
    // (salt = $RINGSIM_CACHE_SALT) agree whenever the salts match.
    util::JsonValue job;
    std::string error;
    ASSERT_TRUE(util::tryParseJson(
        "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
        "\"fast\":true}",
        &job, &error))
        << error;
    service::JobSpec spec;
    ASSERT_TRUE(service::JobSpec::tryParse(job, true, &spec, &error))
        << error;
    for (const char *salt : {"", "fleet-a"}) {
        EXPECT_EQ(shardKey(spec, salt),
                  service::cacheKey(spec.canonical().dump(), salt));
        // A sweep part's key is its own part spec's.
        service::JobSpec part = spec;
        part.sweepPart = 3;
        EXPECT_EQ(shardKey(part, salt),
                  service::cacheKey(part.canonical().dump(), salt));
        EXPECT_NE(shardKey(part, salt), shardKey(spec, salt));
    }
    EXPECT_NE(shardKey(spec, ""), shardKey(spec, "fleet-a"));
}

TEST(FleetConfig, DefaultsNeedWorkers)
{
    FleetConfig cfg;
    EXPECT_FALSE(cfg.check().empty());
    cfg.workers = {"tcp:4100", "tcp:4101"};
    EXPECT_TRUE(cfg.check().empty());
}

TEST(FleetConfig, RejectsBadEndpointsDuplicatesAndZeroBounds)
{
    FleetConfig cfg;
    cfg.workers = {"tcp:70000"};
    EXPECT_FALSE(cfg.check().empty());

    cfg.workers = {"tcp:4100", "tcp:4100"};
    std::vector<std::string> errors = cfg.check();
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().find("twice"), std::string::npos);

    // Zero workers is the one bound a fleet has.
    cfg.workers = {};
    errors = cfg.check();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors.front().find("at least one"), std::string::npos);
}

} // namespace
} // namespace ringsim::fleet
