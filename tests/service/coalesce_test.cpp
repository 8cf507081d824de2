/**
 * @file
 * Worker-level single-flight coalescing: a duplicate submission of a
 * cacheable spec that is already admitted attaches to the in-flight
 * leader instead of executing twice — sharing the leader's id, its
 * answer, and even its death. The schedule-level guarantees (no
 * orphaned waiter, no double answer under any interleaving) are
 * proved by the src/verify/ explorer; these tests pin the concrete
 * wire behavior to the modeled one.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/service/server.hpp"
#include "src/util/json.hpp"

namespace ringsim::service {
namespace {

util::JsonValue
parse(const std::string &line)
{
    util::JsonValue v;
    std::string error;
    EXPECT_TRUE(util::tryParseJson(line, &v, &error))
        << error << " in: " << line;
    return v;
}

ServiceConfig
testConfig()
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queueDepth = 8;
    cfg.memCacheEntries = 16;
    cfg.enableTestJobs = true;
    return cfg;
}

/** Poll @p id until it leaves the pool (bounded busy-wait). */
util::JsonValue
pollUntilSettled(ServiceCore &core, std::uint64_t id)
{
    for (int i = 0; i < 400; ++i) {
        util::JsonValue r = parse(core.handleLine(
            "t", "{\"op\":\"poll\",\"id\":" + std::to_string(id) +
                     "}"));
        std::vector<std::string> errors;
        std::string state = r.getString("state", "?", &errors);
        if (state != "queued" && state != "running")
            return r;
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ADD_FAILURE() << "job " << id << " never settled";
    return util::JsonValue::null();
}

constexpr const char *kSleeper =
    "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\",\"ms\":400}}";

constexpr const char *kModelSubmit =
    "{\"op\":\"submit\",\"job\":{\"type\":\"model\","
    "\"benchmark\":\"mp3d\",\"procs\":8,\"refs\":2000,"
    "\"fast\":true}}";

/** Pin both executors so the next cacheable submit stays Queued —
 *  coalescing needs the leader deterministically in flight. Returns
 *  once both sleepers run, not once they are queued: a sleeper still
 *  queued could lose the round-robin pick to the next client's job.
 *  (Bounded busy-wait.) */
std::vector<std::uint64_t>
pinExecutors(ServiceCore &core)
{
    std::vector<std::uint64_t> ids;
    std::vector<std::string> errors;
    for (int i = 0; i < 2; ++i) {
        util::JsonValue r = parse(core.handleLine("pin", kSleeper));
        EXPECT_TRUE(r.getBool("ok", false, &errors));
        ids.push_back(r.getU64("id", 0, &errors));
    }
    for (int i = 0; i < 2000; ++i) {
        util::JsonValue stats =
            parse(core.handleLine("t", "{\"op\":\"statsz\"}"));
        if (stats.getU64("running", 0, &errors) == 2)
            return ids;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "the two sleepers never both ran";
    return ids;
}

TEST(Coalesce, DuplicateSubmitAttachesToTheInFlightLeader)
{
    ServiceCore core(testConfig());
    std::vector<std::uint64_t> pins = pinExecutors(core);

    std::vector<std::string> errors;
    util::JsonValue leader = parse(core.handleLine("a", kModelSubmit));
    ASSERT_TRUE(leader.getBool("ok", false, &errors));
    std::uint64_t id = leader.getU64("id", 0, &errors);
    ASSERT_GT(id, 0u);
    EXPECT_EQ(leader.getString("state", "", &errors), "queued");
    EXPECT_FALSE(leader.getBool("coalesced", false, &errors));

    // The duplicate — from a different client — shares the leader's
    // id and consumes no admission slot.
    util::JsonValue dup = parse(core.handleLine("b", kModelSubmit));
    ASSERT_TRUE(dup.getBool("ok", false, &errors));
    EXPECT_EQ(dup.getU64("id", 0, &errors), id);
    EXPECT_TRUE(dup.getBool("coalesced", false, &errors));
    EXPECT_EQ(dup.getString("key", "", &errors),
              leader.getString("key", "", &errors));

    util::JsonValue done = pollUntilSettled(core, id);
    EXPECT_EQ(done.getString("state", "", &errors), "done");
    ASSERT_NE(done.find("result"), nullptr);

    util::JsonValue stats =
        parse(core.handleLine("t", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(stats.getU64("coalesced", 0, &errors), 1u);
    // Two submits, one execution: only the leader was admitted.
    EXPECT_EQ(stats.getU64("admitted", 0, &errors), 3u); // 2 pins + 1
    for (std::uint64_t pin : pins)
        pollUntilSettled(core, pin);
}

TEST(Coalesce, TerminalLeaderStopsCoalescingFurtherSubmits)
{
    ServiceCore core(testConfig());
    std::vector<std::string> errors;

    // Uncontended run: the leader completes and is memoized.
    util::JsonValue first = parse(core.handleLine(
        "a", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"model\",\"benchmark\":\"water\","
             "\"procs\":8,\"refs\":2000,\"fast\":true}}"));
    ASSERT_TRUE(first.getBool("ok", false, &errors));
    EXPECT_EQ(first.getString("state", "", &errors), "done");

    // A repeat after the flight retired is a cache answer with a
    // fresh id — not a coalesced attach to a dead leader.
    util::JsonValue second = parse(core.handleLine(
        "b", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"model\",\"benchmark\":\"water\","
             "\"procs\":8,\"refs\":2000,\"fast\":true}}"));
    ASSERT_TRUE(second.getBool("ok", false, &errors));
    EXPECT_TRUE(second.getBool("cached", false, &errors));
    EXPECT_FALSE(second.getBool("coalesced", false, &errors));
    EXPECT_NE(second.getU64("id", 0, &errors),
              first.getU64("id", 0, &errors));

    util::JsonValue stats =
        parse(core.handleLine("t", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(stats.getU64("coalesced", 0, &errors), 0u);
    EXPECT_EQ(stats.getU64("cache_answers", 0, &errors), 1u);
}

TEST(Coalesce, ACancelledLeaderAnswersItsWaiterToo)
{
    ServiceCore core(testConfig());
    std::vector<std::uint64_t> pins = pinExecutors(core);

    std::vector<std::string> errors;
    util::JsonValue leader = parse(core.handleLine("a", kModelSubmit));
    std::uint64_t id = leader.getU64("id", 0, &errors);
    util::JsonValue dup = parse(core.handleLine("b", kModelSubmit));
    ASSERT_TRUE(dup.getBool("coalesced", false, &errors));
    ASSERT_EQ(dup.getU64("id", 0, &errors), id);

    // Kill the leader while it is still queued. The waiter shares the
    // leader's id, so the cancellation *is* its answer — the modeled
    // "leader death answers all waiters" property on the real wire.
    util::JsonValue c = parse(core.handleLine(
        "a", "{\"op\":\"cancel\",\"id\":" + std::to_string(id) +
                 "}"));
    ASSERT_TRUE(c.getBool("ok", false, &errors));
    util::JsonValue waiter_view = parse(core.handleLine(
        "b", "{\"op\":\"poll\",\"id\":" + std::to_string(id) + "}"));
    EXPECT_EQ(waiter_view.getString("state", "", &errors),
              "cancelled");

    // The retired flight must not capture the next duplicate: a
    // fresh submit leads (and executes) on its own.
    util::JsonValue retry = parse(core.handleLine("b", kModelSubmit));
    ASSERT_TRUE(retry.getBool("ok", false, &errors));
    EXPECT_FALSE(retry.getBool("coalesced", false, &errors));
    EXPECT_NE(retry.getU64("id", 0, &errors), id);

    pollUntilSettled(core, retry.getU64("id", 0, &errors));
    for (std::uint64_t pin : pins)
        pollUntilSettled(core, pin);
}

TEST(Coalesce, SleepJobsNeverCoalesce)
{
    ServiceCore core(testConfig());
    std::vector<std::string> errors;
    // Identical side-effect-shaped (non-cacheable) jobs must both
    // run: distinct ids, no coalesced flag.
    util::JsonValue r1 = parse(core.handleLine("a", kSleeper));
    util::JsonValue r2 = parse(core.handleLine("a", kSleeper));
    ASSERT_TRUE(r1.getBool("ok", false, &errors));
    ASSERT_TRUE(r2.getBool("ok", false, &errors));
    EXPECT_NE(r1.getU64("id", 0, &errors),
              r2.getU64("id", 0, &errors));
    EXPECT_FALSE(r2.getBool("coalesced", false, &errors));
    pollUntilSettled(core, r1.getU64("id", 0, &errors));
    pollUntilSettled(core, r2.getU64("id", 0, &errors));
}

} // namespace
} // namespace ringsim::service
