/**
 * @file
 * Known-value pins for the one splitmix64 finalizer.
 *
 * RNG seeding, runner job seeds, both fault schedules and service
 * cache keys all end in util's splitmix64Finalize. Any change to it
 * (or to a caller's pre-add) silently re-rolls every trace, fault
 * schedule and cache key, so the outputs are pinned here to values
 * recorded before the copies were folded into one.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/fault/service_faults.hpp"
#include "src/runner/experiment_runner.hpp"
#include "src/service/cache_key.hpp"
#include "src/util/rng.hpp"

namespace ringsim {
namespace {

TEST(SplitmixFinalizer, MatchesTheReferenceSequence)
{
    // splitmix64 from state 0: the published first output.
    EXPECT_EQ(splitmix64Finalize(0x9e3779b97f4a7c15ULL),
              0xe220a8397b1dcdafULL);
    EXPECT_EQ(splitmix64Finalize(0), 0u);
}

TEST(SplitmixFinalizer, PinsEveryConsumerBitForBit)
{
    Rng rng(12345);
    EXPECT_EQ(rng.next(), 0xbe6a36374160d49bULL);
    EXPECT_EQ(rng.next(), 0x214aaa0637a688c6ULL);
    EXPECT_EQ(rng.next(), 0xf69d16de9954d388ULL);
    EXPECT_EQ(Rng(0).next(), 0x99ec5f36cb75f2b4ULL);

    EXPECT_EQ(runner::jobSeed(42, 7), 0xccf635ee9e9e2fa4ULL);
    EXPECT_EQ(runner::jobSeed(0, 0), 0xe220a8397b1dcdafULL);

    EXPECT_EQ(service::fingerprint64("data", 1), 0x26ae968a4fd446b4ULL);
    EXPECT_EQ(service::fingerprint64("", 0), 0xf52a15e9a9b5e89bULL);
    EXPECT_EQ(service::cacheKey("{\"type\":\"run\"}", ""),
              "673864a97d6dd0b05eef87e79e19bae4");

    fault::FaultPlan plan(7);
    std::vector<std::pair<unsigned, unsigned>> fires;
    for (unsigned cycle = 0; cycle < 2000 && fires.size() < 6; ++cycle)
        for (unsigned slot = 0; slot < 4 && fires.size() < 6; ++slot)
            if (plan.decide(fault::FaultKind::Corrupt, cycle, slot, 0.01))
                fires.emplace_back(cycle, slot);
    EXPECT_EQ(fires, (std::vector<std::pair<unsigned, unsigned>>{
                         {0, 0}, {7, 1}, {80, 2}, {123, 0}, {138, 3},
                         {144, 3}}));

    std::vector<unsigned> seqs;
    for (unsigned seq = 0; seq < 2000 && seqs.size() < 6; ++seq)
        if (fault::ServiceFaultInjector::decide(
                7, fault::ServiceFaultKind::Garble, seq, 0.01))
            seqs.push_back(seq);
    EXPECT_EQ(seqs, (std::vector<unsigned>{37, 56, 140, 207, 417, 462}));
}

} // namespace
} // namespace ringsim
