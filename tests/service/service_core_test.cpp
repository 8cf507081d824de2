/**
 * @file
 * In-process tests of the service core: admission, shedding,
 * memoization, watchdog and the statsz surface. ServiceCore is
 * transport-independent, so these drive the NDJSON protocol directly
 * through handleLine() with no sockets involved.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
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
    cfg.queueDepth = 4;
    cfg.memCacheEntries = 16;
    cfg.enableTestJobs = true;
    cfg.watchdog = std::chrono::minutes(10);
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

/** The member names of object @p v, in order. */
std::vector<std::string>
keysOf(const util::JsonValue &v)
{
    std::vector<std::string> keys;
    for (const auto &member : v.members())
        keys.push_back(member.first);
    return keys;
}

TEST(ServiceCore, PingPongs)
{
    ServiceCore core(testConfig());
    EXPECT_EQ(core.handleLine("c", "{\"op\":\"ping\"}"),
              "{\"ok\":true,\"op\":\"ping\"}");
}

TEST(ServiceCore, RejectsMalformedLines)
{
    ServiceCore core(testConfig());
    util::JsonValue r = parse(core.handleLine("c", "not json"));
    std::vector<std::string> errors;
    EXPECT_FALSE(r.getBool("ok", true, &errors));
    r = parse(core.handleLine("c", "{\"op\":\"warp\"}"));
    EXPECT_FALSE(r.getBool("ok", true, &errors));
}

TEST(ServiceCore, SubmitRejectsBadJobWithFieldError)
{
    ServiceCore core(testConfig());
    util::JsonValue r = parse(core.handleLine(
        "c",
        "{\"op\":\"submit\",\"job\":{\"type\":\"run\","
        "\"benchmark\":\"doom\"}}"));
    std::vector<std::string> errors;
    EXPECT_FALSE(r.getBool("ok", true, &errors));
    EXPECT_NE(r.getString("error", "", &errors).find("benchmark ="),
              std::string::npos);
}

TEST(ServiceCore, WaitSubmitReturnsResult)
{
    ServiceCore core(testConfig());
    util::JsonValue r = parse(core.handleLine(
        "c",
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"verify\",\"nodes\":2,\"blocks\":1}}"));
    std::vector<std::string> errors;
    EXPECT_TRUE(r.getBool("ok", false, &errors));
    EXPECT_EQ(r.getString("state", "", &errors), "done");
    const util::JsonValue *result = r.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->getBool("clean", false, &errors));
}

TEST(ServiceCore, AsyncSubmitThenPoll)
{
    ServiceCore core(testConfig());
    util::JsonValue r = parse(core.handleLine(
        "c",
        "{\"op\":\"submit\",\"job\":{\"type\":\"model\","
        "\"benchmark\":\"mp3d\",\"procs\":8,\"refs\":2000,"
        "\"fast\":true}}"));
    std::vector<std::string> errors;
    ASSERT_TRUE(r.getBool("ok", false, &errors));
    std::uint64_t id = r.getU64("id", 0, &errors);
    ASSERT_GT(id, 0u);

    util::JsonValue done = pollUntilSettled(core, id);
    EXPECT_EQ(done.getString("state", "", &errors), "done");
    ASSERT_NE(done.find("result"), nullptr);
}

TEST(ServiceCore, SecondSubmissionAnswersFromCache)
{
    ServiceCore core(testConfig());
    const std::string submit =
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"model\",\"benchmark\":\"water\",\"procs\":8,"
        "\"refs\":2000,\"fast\":true}}";
    util::JsonValue first = parse(core.handleLine("c", submit));
    util::JsonValue second = parse(core.handleLine("c", submit));
    std::vector<std::string> errors;
    EXPECT_FALSE(first.getBool("cached", true, &errors));
    EXPECT_TRUE(second.getBool("cached", false, &errors));
    // Identical result objects, served without recomputation.
    ASSERT_NE(first.find("result"), nullptr);
    ASSERT_NE(second.find("result"), nullptr);
    EXPECT_EQ(first.find("result")->dump(),
              second.find("result")->dump());
    EXPECT_EQ(core.cache().stats().memHits, 1u);
}

TEST(ServiceCore, SharedCacheDirAnswersAcrossDaemons)
{
    // Two daemons on one --cache-dir: the one way a daemon answers
    // from another daemon's results. The memory tiers are private,
    // so the second daemon's hit proves the disk tier carried the
    // first one's bytes.
    std::string dir = testing::TempDir() + "/ringsim_shared_cache." +
                      std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    ServiceConfig cfg = testConfig();
    cfg.cacheDir = dir;
    ServiceCore first(cfg);
    ServiceCore second(cfg);
    const std::string submit =
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"model\",\"benchmark\":\"water\",\"procs\":8,"
        "\"refs\":2000,\"fast\":true}}";
    util::JsonValue computed = parse(first.handleLine("c", submit));
    util::JsonValue shared = parse(second.handleLine("c", submit));
    std::vector<std::string> errors;
    EXPECT_FALSE(computed.getBool("cached", true, &errors));
    EXPECT_TRUE(shared.getBool("cached", false, &errors));
    ASSERT_NE(computed.find("result"), nullptr);
    ASSERT_NE(shared.find("result"), nullptr);
    EXPECT_EQ(shared.find("result")->dump(),
              computed.find("result")->dump());
    EXPECT_EQ(second.cache().stats().diskHits, 1u);
    EXPECT_EQ(second.cache().stats().memHits, 0u);

    // The disk hit was promoted: the repeat is a memory hit.
    util::JsonValue repeat = parse(second.handleLine("c", submit));
    EXPECT_TRUE(repeat.getBool("cached", false, &errors));
    EXPECT_EQ(second.cache().stats().memHits, 1u);
    EXPECT_EQ(second.cache().stats().diskHits, 1u);
    std::filesystem::remove_all(dir);
}

TEST(ServiceCore, SaltSeparatesCaches)
{
    ServiceConfig a = testConfig();
    ServiceConfig b = testConfig();
    b.salt = "other";
    ServiceCore core_a(a), core_b(b);
    const std::string submit =
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"verify\",\"nodes\":2}}";
    util::JsonValue ra = parse(core_a.handleLine("c", submit));
    util::JsonValue rb = parse(core_b.handleLine("c", submit));
    std::vector<std::string> errors;
    std::string ka = ra.getString("key", "", &errors);
    std::string kb = rb.getString("key", "", &errors);
    EXPECT_FALSE(ka.empty());
    EXPECT_NE(ka, kb);
}

TEST(ServiceCore, OverloadShedsWithRetryAfter)
{
    ServiceConfig cfg = testConfig();
    cfg.workers = 2;
    cfg.queueDepth = 2;
    cfg.retryAfterMs = 125;
    ServiceCore core(cfg);

    // Fill both admission slots with held workers...
    const std::string sleeper =
        "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
        "\"ms\":500}}";
    std::vector<std::string> errors;
    util::JsonValue r1 = parse(core.handleLine("c", sleeper));
    util::JsonValue r2 = parse(core.handleLine("c", sleeper));
    ASSERT_TRUE(r1.getBool("ok", false, &errors));
    ASSERT_TRUE(r2.getBool("ok", false, &errors));

    // ...then the third submit must shed, with a structured hint.
    util::JsonValue shed = parse(core.handleLine("c", sleeper));
    EXPECT_FALSE(shed.getBool("ok", true, &errors));
    EXPECT_NE(shed.getString("error", "", &errors).find("overloaded"),
              std::string::npos);
    EXPECT_GE(shed.getU64("retry_after_ms", 0, &errors), 125u);

    // Sleep jobs are not memoized, so the cache cannot mask shedding.
    EXPECT_EQ(core.cache().stats().stores, 0u);

    // After the pool drains, the same submit is admitted again.
    std::uint64_t id1 = r1.getU64("id", 0, &errors);
    pollUntilSettled(core, id1);
    std::uint64_t id2 = r2.getU64("id", 0, &errors);
    pollUntilSettled(core, id2);
    util::JsonValue r3 = parse(core.handleLine("c", sleeper));
    EXPECT_TRUE(r3.getBool("ok", false, &errors));
}

TEST(ServiceCore, WatchdogTimesOutStuckJobs)
{
    ServiceConfig cfg = testConfig();
    cfg.watchdog = std::chrono::milliseconds(50);
    ServiceCore core(cfg);
    util::JsonValue r = parse(core.handleLine(
        "c",
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"sleep\",\"ms\":400}}"));
    std::vector<std::string> errors;
    EXPECT_FALSE(r.getBool("ok", true, &errors) &&
                 r.getString("state", "", &errors) == "done");
    EXPECT_EQ(r.getString("state", "", &errors), "timed_out");
    EXPECT_NE(r.getString("error", "", &errors).find("watchdog"),
              std::string::npos);

    // Once the sleeper actually finishes, its completion is counted
    // as late and discarded, never overwriting the timeout verdict.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(sz.getU64("timed_out", 0, &errors), 1u);
    EXPECT_EQ(sz.getU64("late_completions", 0, &errors), 1u);
}

TEST(ServiceCore, StatszReportsTheFullSurface)
{
    ServiceCore core(testConfig());
    parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"verify\",\"nodes\":2}}"));
    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    std::vector<std::string> errors;
    EXPECT_TRUE(sz.getBool("ok", false, &errors));
    EXPECT_EQ(sz.getU64("workers", 0, &errors), 2u);
    EXPECT_EQ(sz.getU64("queue_depth", 0, &errors), 4u);
    EXPECT_EQ(sz.getU64("submitted", 0, &errors), 1u);
    EXPECT_EQ(sz.getU64("completed", 0, &errors), 1u);
    EXPECT_EQ(sz.getU64("shed", 0, &errors), 0u);
    ASSERT_NE(sz.find("cache"), nullptr);
    const util::JsonValue *lat = sz.find("latency");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->getU64("count", 0, &errors), 1u);
    // A tiny verify job can finish in under a millisecond, so the
    // percentile only has to be present and non-negative.
    EXPECT_GE(lat->getNumber("p50_ms", -1, &errors), 0.0);
    EXPECT_TRUE(errors.empty());

    // The schema (DESIGN.md §13.4), pinned key by key and in order:
    // perfbench/run.py and the smoke scripts read these names.
    const std::vector<std::string> top = {
        "ok", "op", "workers", "queue_depth", "active", "running",
        "submitted", "admitted", "shed", "completed", "failed",
        "timed_out", "late_completions", "cache_answers",
        "bad_requests", "cancelled", "deadline_expired", "degraded",
        "coalesced", "cache", "latency"};
    EXPECT_EQ(keysOf(sz), top);
    const std::vector<std::string> cache = {
        "mem_hits", "disk_hits", "misses", "stores", "evictions",
        "disk_errors", "quarantined", "scanned", "tmp_cleaned"};
    EXPECT_EQ(keysOf(*sz.find("cache")), cache);
    EXPECT_EQ(keysOf(*lat),
              (std::vector<std::string>{"count", "mean_ms", "min_ms",
                                        "max_ms", "p50_ms", "p90_ms",
                                        "p99_ms"}));

    // With chaos on, a "chaos" section follows "cache" and nothing
    // else changes.
    ServiceConfig chaotic = testConfig();
    chaotic.chaos = fault::ServiceFaultConfig::chaosPreset(5);
    ServiceCore chaos_core(chaotic);
    util::JsonValue csz =
        parse(chaos_core.handleLine("c", "{\"op\":\"statsz\"}"));
    std::vector<std::string> with_chaos = top;
    with_chaos.insert(with_chaos.end() - 1, "chaos");
    EXPECT_EQ(keysOf(csz), with_chaos);
    ASSERT_NE(csz.find("chaos"), nullptr);
    EXPECT_EQ(keysOf(*csz.find("chaos")),
              (std::vector<std::string>{"seed", "slow_writes",
                                        "disconnects", "garbles",
                                        "torn_writes", "bit_flips"}));
}

TEST(ServiceCore, PollUnknownIdIsAnError)
{
    ServiceCore core(testConfig());
    util::JsonValue r =
        parse(core.handleLine("c", "{\"op\":\"poll\",\"id\":999}"));
    std::vector<std::string> errors;
    EXPECT_FALSE(r.getBool("ok", true, &errors));
    EXPECT_NE(r.getString("error", "", &errors).find("999"),
              std::string::npos);
}

TEST(ServiceCore, ShutdownLatches)
{
    ServiceCore core(testConfig());
    EXPECT_FALSE(core.shutdownRequested());
    parse(core.handleLine("c", "{\"op\":\"shutdown\"}"));
    EXPECT_TRUE(core.shutdownRequested());
}

TEST(ServiceCore, CancelQueuedJobNeverRuns)
{
    ServiceConfig cfg = testConfig();
    cfg.workers = 2;
    cfg.queueDepth = 4;
    ServiceCore core(cfg);
    std::vector<std::string> errors;

    // Pin both workers, then queue a third sleeper and cancel it.
    const std::string sleeper =
        "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
        "\"ms\":300}}";
    util::JsonValue r1 = parse(core.handleLine("c", sleeper));
    util::JsonValue r2 = parse(core.handleLine("c", sleeper));
    util::JsonValue r3 = parse(core.handleLine("c", sleeper));
    std::uint64_t id = r3.getU64("id", 0, &errors);
    ASSERT_GT(id, 0u);

    util::JsonValue c = parse(core.handleLine(
        "c",
        "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}"));
    EXPECT_TRUE(c.getBool("ok", false, &errors));
    EXPECT_EQ(c.getString("state", "", &errors), "cancelled");

    // Drain the pinned sleepers; the cancelled job must not have
    // consumed a worker (no late completion — it never started) and
    // its admission slot must be free again.
    pollUntilSettled(core, r1.getU64("id", 0, &errors));
    pollUntilSettled(core, r2.getU64("id", 0, &errors));
    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(sz.getU64("cancelled", 0, &errors), 1u);
    EXPECT_EQ(sz.getU64("late_completions", 99, &errors), 0u);
    EXPECT_EQ(sz.getU64("active", 99, &errors), 0u);
}

TEST(ServiceCore, CancelRunningJobDiscardsLateCompletion)
{
    ServiceCore core(testConfig());
    std::vector<std::string> errors;
    util::JsonValue r = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
             "\"ms\":300}}"));
    std::uint64_t id = r.getU64("id", 0, &errors);

    // Wait until the sleeper is actually on a worker.
    for (int i = 0; i < 200; ++i) {
        util::JsonValue p = parse(core.handleLine(
            "c",
            "{\"op\":\"poll\",\"id\":" + std::to_string(id) + "}"));
        if (p.getString("state", "", &errors) == "running")
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    util::JsonValue c = parse(core.handleLine(
        "c",
        "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}"));
    EXPECT_EQ(c.getString("state", "", &errors), "cancelled");

    // The abandoned thread finishes eventually; its completion is
    // counted and discarded, never flipping the cancel verdict.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    util::JsonValue p = parse(core.handleLine(
        "c", "{\"op\":\"poll\",\"id\":" + std::to_string(id) + "}"));
    EXPECT_EQ(p.getString("state", "", &errors), "cancelled");
    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(sz.getU64("cancelled", 0, &errors), 1u);
    EXPECT_EQ(sz.getU64("late_completions", 0, &errors), 1u);
}

TEST(ServiceCore, CancelUnknownOrSettledJob)
{
    ServiceCore core(testConfig());
    std::vector<std::string> errors;
    util::JsonValue c = parse(
        core.handleLine("c", "{\"op\":\"cancel\",\"id\":777}"));
    EXPECT_FALSE(c.getBool("ok", true, &errors));
    EXPECT_NE(c.getString("error", "", &errors).find("777"),
              std::string::npos);

    // Cancelling a finished job is a no-op that reports the verdict.
    util::JsonValue r = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"verify\",\"nodes\":2}}"));
    std::uint64_t id = r.getU64("id", 0, &errors);
    c = parse(core.handleLine(
        "c",
        "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}"));
    EXPECT_TRUE(c.getBool("ok", false, &errors));
    EXPECT_EQ(c.getString("state", "", &errors), "done");
    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(sz.getU64("cancelled", 99, &errors), 0u);
}

TEST(ServiceCore, DeadlineExpiresQueuedJob)
{
    ServiceConfig cfg = testConfig();
    cfg.workers = 2;
    ServiceCore core(cfg);
    std::vector<std::string> errors;

    // Pin both workers for longer than the queued job's deadline.
    const std::string pin =
        "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
        "\"ms\":400}}";
    util::JsonValue p1 = parse(core.handleLine("c", pin));
    util::JsonValue p2 = parse(core.handleLine("c", pin));
    util::JsonValue r = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
             "\"ms\":10,\"deadline_ms\":50}}"));
    std::uint64_t id = r.getU64("id", 0, &errors);
    ASSERT_GT(id, 0u);

    util::JsonValue done = pollUntilSettled(core, id);
    EXPECT_EQ(done.getString("state", "", &errors), "cancelled");
    EXPECT_NE(done.getString("error", "", &errors).find("deadline"),
              std::string::npos);
    pollUntilSettled(core, p1.getU64("id", 0, &errors));
    pollUntilSettled(core, p2.getU64("id", 0, &errors));
    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_GE(sz.getU64("deadline_expired", 0, &errors), 1u);
    EXPECT_EQ(sz.getU64("active", 99, &errors), 0u);
}

TEST(ServiceCore, DeadlineAbandonsRunningJob)
{
    ServiceCore core(testConfig());
    std::vector<std::string> errors;
    util::JsonValue r = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"sleep\",\"ms\":400,"
             "\"deadline_ms\":50}}"));
    EXPECT_EQ(r.getString("state", "", &errors), "timed_out");
    EXPECT_NE(r.getString("error", "", &errors).find("deadline"),
              std::string::npos);
    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(sz.getU64("deadline_expired", 0, &errors), 1u);
    EXPECT_EQ(sz.getU64("timed_out", 0, &errors), 1u);
}

TEST(ServiceCore, ClientGoneCancelsOnlyThatClientsQueuedJobs)
{
    ServiceConfig cfg = testConfig();
    cfg.workers = 2;
    ServiceCore core(cfg);
    std::vector<std::string> errors;

    // Two running jobs for "a", one queued each for "a" and "b".
    const std::string sleeper =
        "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
        "\"ms\":300}}";
    util::JsonValue a1 = parse(core.handleLine("a", sleeper));
    util::JsonValue a2 = parse(core.handleLine("a", sleeper));
    // Wait for both to be picked up: clientGone must only take jobs
    // that are still queued, and a job is only reliably Running once
    // a poll says so.
    for (std::uint64_t id : {a1.getU64("id", 0, &errors),
                             a2.getU64("id", 0, &errors)}) {
        for (int i = 0; i < 200; ++i) {
            util::JsonValue p = parse(core.handleLine(
                "t", "{\"op\":\"poll\",\"id\":" +
                         std::to_string(id) + "}"));
            if (p.getString("state", "", &errors) != "queued")
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    }
    util::JsonValue aq = parse(core.handleLine("a", sleeper));
    util::JsonValue bq = parse(core.handleLine("b", sleeper));
    std::uint64_t aq_id = aq.getU64("id", 0, &errors);
    std::uint64_t bq_id = bq.getU64("id", 0, &errors);

    core.clientGone("a");

    // a's queued job died with the connection; b's survives and the
    // running jobs finish normally.
    util::JsonValue pa = parse(core.handleLine(
        "t", "{\"op\":\"poll\",\"id\":" + std::to_string(aq_id) +
                 "}"));
    EXPECT_EQ(pa.getString("state", "", &errors), "cancelled");
    EXPECT_NE(pa.getString("error", "", &errors).find("disconnect"),
              std::string::npos);
    util::JsonValue pb = pollUntilSettled(core, bq_id);
    EXPECT_EQ(pb.getString("state", "", &errors), "done");
    util::JsonValue da =
        pollUntilSettled(core, a1.getU64("id", 0, &errors));
    EXPECT_EQ(da.getString("state", "", &errors), "done");
    pollUntilSettled(core, a2.getU64("id", 0, &errors));
}

TEST(ServiceCore, ShedDegradesToModelTierWhenEnabled)
{
    ServiceConfig cfg = testConfig();
    cfg.workers = 2;
    cfg.queueDepth = 2;
    cfg.degradeToModel = true;
    ServiceCore core(cfg);
    std::vector<std::string> errors;

    // Saturate admission with sleepers (which can never degrade)...
    const std::string sleeper =
        "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
        "\"ms\":400}}";
    util::JsonValue r1 = parse(core.handleLine("c", sleeper));
    util::JsonValue r2 = parse(core.handleLine("c", sleeper));
    ASSERT_TRUE(r1.getBool("ok", false, &errors));
    ASSERT_TRUE(r2.getBool("ok", false, &errors));

    // ...then a run submit is answered by the model tier instantly.
    util::JsonValue deg = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"run\",\"benchmark\":\"mp3d\","
             "\"procs\":8,\"refs\":2000,\"fast\":true}}"));
    EXPECT_TRUE(deg.getBool("ok", false, &errors));
    EXPECT_EQ(deg.getString("state", "", &errors), "done");
    EXPECT_TRUE(deg.getBool("degraded", false, &errors));
    const util::JsonValue *result = deg.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->getBool("degraded", false, &errors));
    EXPECT_GT(result->getNumber("error_bound", -1, &errors), 0.0);

    // A sleeper (not degradable) and an opted-out run still shed.
    util::JsonValue shed = parse(core.handleLine("c", sleeper));
    EXPECT_FALSE(shed.getBool("ok", true, &errors));
    util::JsonValue optout = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"job\":{\"type\":\"run\","
             "\"benchmark\":\"mp3d\",\"procs\":8,\"refs\":2000,"
             "\"fast\":true,\"degrade\":false}}"));
    EXPECT_FALSE(optout.getBool("ok", true, &errors));
    EXPECT_GT(optout.getU64("retry_after_ms", 0, &errors), 0u);

    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(sz.getU64("degraded", 0, &errors), 1u);
    // Degraded answers are never memoized.
    EXPECT_EQ(core.cache().stats().stores, 0u);
}

TEST(ServiceCore, ShedNeverDegradesByDefault)
{
    ServiceConfig cfg = testConfig();
    cfg.queueDepth = 1;
    ServiceCore core(cfg);
    std::vector<std::string> errors;
    parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
             "\"ms\":300}}"));
    util::JsonValue shed = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"job\":{\"type\":\"run\","
             "\"benchmark\":\"mp3d\",\"procs\":8,\"refs\":2000,"
             "\"fast\":true}}"));
    EXPECT_FALSE(shed.getBool("ok", true, &errors));
    EXPECT_NE(shed.getString("error", "", &errors).find("overloaded"),
              std::string::npos);
}

TEST(ServiceCore, WatchdogEscalationAttachesDegradedEstimate)
{
    ServiceConfig cfg = testConfig();
    cfg.watchdog = std::chrono::milliseconds(1);
    cfg.degradeToModel = true;
    ServiceCore core(cfg);
    std::vector<std::string> errors;

    // A real (non-fast) run overruns a 1 ms watchdog for certain.
    util::JsonValue r = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"job\":{\"type\":\"run\","
             "\"benchmark\":\"mp3d\",\"procs\":8,"
             "\"refs\":50000}}"));
    std::uint64_t id = r.getU64("id", 0, &errors);
    ASSERT_GT(id, 0u);

    util::JsonValue done = pollUntilSettled(core, id);
    EXPECT_EQ(done.getString("state", "", &errors), "timed_out");
    // The poll that reaped the timeout escalated to the model tier:
    // a partial (estimated) result rides along with the verdict.
    EXPECT_TRUE(done.getBool("degraded", false, &errors));
    const util::JsonValue *result = done.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->getBool("degraded", false, &errors));
    EXPECT_GT(result->getNumber("error_bound", -1, &errors), 0.0);

    util::JsonValue sz =
        parse(core.handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_GE(sz.getU64("degraded", 0, &errors), 1u);
}

TEST(ServiceCore, ShedBackoffJitterIsDeterministicPerClient)
{
    ServiceConfig cfg = testConfig();
    cfg.queueDepth = 1;
    cfg.retryAfterMs = 10'000;
    ServiceCore core(cfg);
    std::vector<std::string> errors;
    parse(core.handleLine(
        "alice", "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
                 "\"ms\":400}}"));

    const std::string probe =
        "{\"op\":\"submit\",\"job\":{\"type\":\"sleep\","
        "\"ms\":1}}";
    auto shed_hint = [&](const char *who) {
        util::JsonValue r = parse(core.handleLine(who, probe));
        EXPECT_FALSE(r.getBool("ok", true, &errors));
        return r.getU64("retry_after_ms", 0, &errors);
    };
    std::uint64_t alice1 = shed_hint("alice");
    std::uint64_t alice2 = shed_hint("alice");
    std::uint64_t bob = shed_hint("bob");

    // Same client, same hint (replayable); the jitter stays within
    // one base interval; distinct clients desynchronize.
    EXPECT_EQ(alice1, alice2);
    EXPECT_GE(alice1, 10'000u);
    EXPECT_LT(alice1, 20'000u);
    EXPECT_NE(alice1, bob);
}

TEST(ServiceCore, ConcurrentClientsGetIdenticalBytes)
{
    // The acceptance property: N concurrent clients submitting the
    // same spec all receive results byte-identical to a direct
    // execution (the first computes, later ones hit the cache or
    // recompute — either way the bytes cannot differ).
    ServiceCore core(testConfig());
    const std::string submit =
        "{\"op\":\"submit\",\"wait\":true,\"job\":"
        "{\"type\":\"model\",\"benchmark\":\"mp3d\",\"procs\":16,"
        "\"refs\":2000,\"fast\":true}}";
    constexpr int clients = 4;
    std::vector<std::string> results(clients);
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&, i]() {
            util::JsonValue r = parse(core.handleLine(
                "client" + std::to_string(i), submit));
            const util::JsonValue *result = r.find("result");
            results[i] = result ? result->dump() : "<none>";
        });
    }
    for (std::thread &t : threads)
        t.join();

    JobSpec spec;
    std::string error;
    util::JsonValue job;
    ASSERT_TRUE(util::tryParseJson(
        "{\"type\":\"model\",\"benchmark\":\"mp3d\",\"procs\":16,"
        "\"refs\":2000,\"fast\":true}",
        &job, &error));
    ASSERT_TRUE(JobSpec::tryParse(job, false, &spec, &error)) << error;
    std::string direct = executeJob(spec, 1).dump();
    for (int i = 0; i < clients; ++i)
        EXPECT_EQ(results[i], direct) << "client " << i;
}

} // namespace
} // namespace ringsim::service
