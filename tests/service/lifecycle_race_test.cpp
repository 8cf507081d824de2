/**
 * @file
 * Races on the threaded ServiceCore that the lifecycle checker
 * (src/service/lifecycle_check.*) explores on its JobTable: cancel
 * vs. complete, deadline vs. dispatch, disconnect vs. shed, and a
 * cancel whose own finish fills the retention bound. Each test drives
 * one interleaving through real pool threads and then asserts what
 * the checker asserts at quiescence: `active` drains to zero, and
 * every admitted job is counted exactly once as completed, failed,
 * timed out or cancelled (late completions are counted apart).
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

using namespace std::chrono_literals;

util::JsonValue
parse(const std::string &line)
{
    util::JsonValue v;
    std::string error;
    EXPECT_TRUE(util::tryParseJson(line, &v, &error))
        << error << " in: " << line;
    return v;
}

/** Two workers, depth three: the smallest shape with real pool
 *  threads (workers = 1 is the serial inline fallback, where dispatch
 *  cannot race anything) where queue pressure and slot release are
 *  observable. */
ServiceConfig
raceConfig()
{
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queueDepth = 3;
    cfg.memCacheEntries = 16;
    cfg.enableTestJobs = true;
    cfg.watchdog = std::chrono::minutes(10);
    return cfg;
}

std::string
sleeper(unsigned ms, unsigned deadline_ms = 0)
{
    std::string job = "{\"op\":\"submit\",\"job\":{\"type\":"
                      "\"sleep\",\"ms\":" +
                      std::to_string(ms);
    if (deadline_ms > 0)
        job += ",\"deadline_ms\":" + std::to_string(deadline_ms);
    return job + "}}";
}

std::uint64_t
submitOk(ServiceCore &core, const std::string &client,
         const std::string &line)
{
    util::JsonValue r = parse(core.handleLine(client, line));
    std::vector<std::string> errors;
    EXPECT_TRUE(r.getBool("ok", false, &errors)) << line;
    std::uint64_t id = r.getU64("id", 0, &errors);
    EXPECT_GT(id, 0u);
    return id;
}

std::string
pollState(ServiceCore &core, std::uint64_t id)
{
    util::JsonValue r = parse(core.handleLine(
        "t",
        "{\"op\":\"poll\",\"id\":" + std::to_string(id) + "}"));
    std::vector<std::string> errors;
    return r.getString("state", "?", &errors);
}

bool
waitForState(ServiceCore &core, std::uint64_t id,
             const std::string &want)
{
    for (int i = 0; i < 400; ++i) {
        if (pollState(core, id) == want)
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return false;
}

std::uint64_t
statsU64(ServiceCore &core, const char *field)
{
    util::JsonValue sz =
        parse(core.handleLine("t", "{\"op\":\"statsz\"}"));
    std::vector<std::string> errors;
    return sz.getU64(field, 9999, &errors);
}

bool
waitForStat(ServiceCore &core, const char *field, std::uint64_t want)
{
    for (int i = 0; i < 400; ++i) {
        if (statsU64(core, field) == want)
            return true;
        std::this_thread::sleep_for(5ms);
    }
    return false;
}

/** The checker's quiescence identity, read from statsz. */
void
expectBalanced(ServiceCore &core)
{
    util::JsonValue sz =
        parse(core.handleLine("t", "{\"op\":\"statsz\"}"));
    std::vector<std::string> errors;
    auto get = [&](const char *field) {
        return sz.getU64(field, 9999, &errors);
    };
    EXPECT_EQ(get("active"), 0u);
    EXPECT_EQ(get("admitted"), get("completed") + get("failed") +
                                   get("timed_out") + get("cancelled"))
        << sz.dump();
}

/** Checker trace: submit -> dispatch -> cancel -> complete(late).
 *  The cancel answers the job; the thread finishing afterwards is a
 *  late completion that must release the slot without re-answering. */
TEST(LifecycleRace, CancelVsCompleteCountsLateCompletion)
{
    ServiceCore core(raceConfig());
    std::uint64_t id = submitOk(core, "c", sleeper(200));
    ASSERT_TRUE(waitForState(core, id, "running"));

    util::JsonValue r = parse(core.handleLine(
        "c",
        "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}"));
    std::vector<std::string> errors;
    EXPECT_TRUE(r.getBool("ok", false, &errors));
    EXPECT_EQ(pollState(core, id), "cancelled");

    // The abandoned thread finishes ~200ms in: counted late,
    // discarded, slot released.
    EXPECT_TRUE(waitForStat(core, "late_completions", 1))
        << "late completion never counted";
    EXPECT_EQ(statsU64(core, "active"), 0u);
    EXPECT_EQ(statsU64(core, "cancelled"), 1u);
    // The job stays answered as cancelled — never double-answered.
    EXPECT_EQ(pollState(core, id), "cancelled");

    // The slot is genuinely free again: a fresh job is admitted and
    // completes.
    util::JsonValue done = parse(core.handleLine(
        "c", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"sleep\",\"ms\":5}}"));
    EXPECT_TRUE(done.getBool("ok", false, &errors));
    EXPECT_EQ(done.getString("state", "", &errors), "done");
    EXPECT_EQ(statsU64(core, "active"), 0u);
    expectBalanced(core);
}

/** Checker trace: submit j0 -> dispatch j0 -> submit j1(deadline)
 *  -> deadline fires before j1 dispatches. The pool task that later
 *  picks j1 must drain it and release its slot. */
TEST(LifecycleRace, DeadlineVsDispatchReleasesSlot)
{
    ServiceCore core(raceConfig());
    std::uint64_t pin1 = submitOk(core, "c", sleeper(250));
    std::uint64_t pin2 = submitOk(core, "c", sleeper(250));
    ASSERT_TRUE(waitForState(core, pin1, "running"));
    ASSERT_TRUE(waitForState(core, pin2, "running"));

    // Queued behind both pinned workers with a deadline that expires
    // long before either frees up.
    std::uint64_t doomed = submitOk(core, "c", sleeper(50, 20));
    EXPECT_EQ(statsU64(core, "active"), 3u);

    std::this_thread::sleep_for(40ms);
    // The lazy watchdog runs on this poll and cancels it in place.
    EXPECT_EQ(pollState(core, doomed), "cancelled");
    EXPECT_EQ(statsU64(core, "deadline_expired"), 1u);

    // When a worker drains the FIFO it finds a non-Queued record
    // and releases the slot it carries; everything must settle to
    // active == 0 with the pinned jobs completed exactly once.
    EXPECT_TRUE(waitForStat(core, "active", 0))
        << "drained task leaked its admission slot";
    EXPECT_EQ(statsU64(core, "completed"), 2u);
    EXPECT_EQ(statsU64(core, "cancelled"), 1u);
    EXPECT_EQ(statsU64(core, "late_completions"), 0u);
    expectBalanced(core);
}

/** Checker trace: client a fills the depth -> client b sheds ->
 *  a disconnects (queued job swept) -> b is admitted. */
TEST(LifecycleRace, DisconnectVsShedFreesSlots)
{
    ServiceCore core(raceConfig());
    std::uint64_t running1 = submitOk(core, "a", sleeper(250));
    std::uint64_t running2 = submitOk(core, "a", sleeper(250));
    ASSERT_TRUE(waitForState(core, running1, "running"));
    ASSERT_TRUE(waitForState(core, running2, "running"));
    std::uint64_t queued = submitOk(core, "a", sleeper(5));
    EXPECT_EQ(statsU64(core, "active"), 3u);

    // Depth exhausted: b is shed with a backoff hint.
    util::JsonValue shed =
        parse(core.handleLine("b", sleeper(5)));
    std::vector<std::string> errors;
    EXPECT_FALSE(shed.getBool("ok", true, &errors));
    EXPECT_GT(shed.getU64("retry_after_ms", 0, &errors), 0u);
    EXPECT_EQ(statsU64(core, "shed"), 1u);
    // Shedding consumed no slot.
    EXPECT_EQ(statsU64(core, "active"), 3u);

    // a disconnects: its queued job is swept; the running one keeps
    // its slot until the thread finishes.
    core.clientGone("a");
    EXPECT_EQ(pollState(core, queued), "cancelled");
    EXPECT_EQ(statsU64(core, "cancelled"), 1u);

    // The swept job keeps its slot until the pool task drains it —
    // exactly the subtlety the drop-drain-release mutation breaks.
    // Both slots must come back on their own.
    EXPECT_TRUE(waitForStat(core, "active", 0))
        << "swept job's slot never drained";

    // b retries against the drained service and is admitted.
    util::JsonValue retry = parse(core.handleLine(
        "b", "{\"op\":\"submit\",\"wait\":true,\"job\":"
             "{\"type\":\"sleep\",\"ms\":5}}"));
    EXPECT_TRUE(retry.getBool("ok", false, &errors));
    EXPECT_EQ(retry.getString("state", "", &errors), "done");
    EXPECT_TRUE(waitForStat(core, "active", 0));
    // Conservation at quiescence: every admitted non-cancelled job
    // completed, the swept one was answered exactly once.
    EXPECT_EQ(statsU64(core, "admitted"), 4u);
    EXPECT_EQ(statsU64(core, "completed"), 3u);
    EXPECT_EQ(statsU64(core, "cancelled"), 1u);
    expectBalanced(core);
}

/** Checker trace: submit j0 -> submit j1 -> dispatch j0 -> watchdog
 *  on j0 -> cancel j1, at the smallest retention. The cancel's own
 *  finish fills --retain while both abandoned threads still run; the
 *  cancel must still answer from its own record, and the dropped
 *  records' late completions must still release their slots. */
TEST(LifecycleRace, CancelAfterTrimAnswersFromItsOwnRecord)
{
    ServiceConfig cfg = raceConfig();
    cfg.retainDone = 1;
    cfg.watchdog = 50ms;
    ServiceCore core(cfg);
    submitOk(core, "c", sleeper(600));
    submitOk(core, "c", sleeper(600));
    // Both threads are abandoned but keep their workers until ~600 ms.
    ASSERT_TRUE(waitForStat(core, "timed_out", 2));
    std::uint64_t queued = submitOk(core, "c", sleeper(5));

    util::JsonValue r = parse(core.handleLine(
        "c",
        "{\"op\":\"cancel\",\"id\":" + std::to_string(queued) + "}"));
    std::vector<std::string> errors;
    EXPECT_TRUE(r.getBool("ok", false, &errors)) << r.dump();
    EXPECT_EQ(r.getString("state", "", &errors), "cancelled");
    EXPECT_EQ(r.getString("error", "", &errors), "cancelled by request");
    EXPECT_EQ(pollState(core, queued), "cancelled");

    EXPECT_TRUE(waitForStat(core, "late_completions", 2))
        << "a dropped record's late completion was not counted";
    EXPECT_TRUE(waitForStat(core, "active", 0));
    EXPECT_EQ(statsU64(core, "admitted"), 3u);
    EXPECT_EQ(statsU64(core, "timed_out"), 2u);
    EXPECT_EQ(statsU64(core, "cancelled"), 1u);
    expectBalanced(core);
}

} // namespace
} // namespace ringsim::service
