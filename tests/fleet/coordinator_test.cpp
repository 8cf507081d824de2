/**
 * @file
 * Coordinator tests: a ServiceCore driving a RemoteExecutor, against
 * real worker daemons on Unix sockets.
 *
 * The coordinator is transport-independent (it is the same
 * ServiceCore the workers run), so the tests drive its handleLine
 * directly and only the workers get sockets. The load-bearing
 * property is the partition contract: any split of a figure sweep
 * across k workers must reassemble byte-identically to a direct
 * single-process run, faults on or off.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fleet/fleet_config.hpp"
#include "src/fleet/remote_executor.hpp"
#include "src/service/client.hpp"
#include "src/service/job.hpp"
#include "src/service/server.hpp"
#include "src/service/socket_server.hpp"
#include "src/util/json.hpp"

namespace ringsim::fleet {
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

/** Worker endpoints must be unique per process *and* per daemon —
 *  one test may run several fleets of several workers each. */
std::string
uniqueEndpoint()
{
    static std::atomic<int> counter{0};
    return testing::TempDir() + "/ringsim_fleet_test." +
           std::to_string(::getpid()) + "." +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

service::ServiceConfig
workerConfig()
{
    service::ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queueDepth = 16;
    cfg.memCacheEntries = 64;
    cfg.enableTestJobs = true;
    return cfg;
}

/** A coordinator over @p endpoints, configured as ringsim_fleetd does. */
std::unique_ptr<service::ServiceCore>
makeCoordinator(const std::vector<std::string> &endpoints,
                service::ServiceConfig cfg = service::ServiceConfig{})
{
    FleetConfig fleet_cfg;
    fleet_cfg.workers = endpoints;
    cfg.workers = static_cast<unsigned>(2 * endpoints.size());
    cfg.enableTestJobs = true;
    return std::make_unique<service::ServiceCore>(
        cfg, std::make_unique<RemoteExecutor>(fleet_cfg, cfg.salt));
}

/** One live worker daemon on a Unix socket, torn down on scope exit. */
class WorkerDaemon
{
  public:
    explicit WorkerDaemon(const service::ServiceConfig &cfg)
        : core_(cfg), endpoint_(uniqueEndpoint()),
          server_(core_, endpoint_)
    {
        std::string error;
        started_ = server_.tryStart(&error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            pump_ = std::thread([this]() { server_.serve(); });
    }

    ~WorkerDaemon()
    {
        if (!started_)
            return;
        service::ServiceClient client;
        std::string error, response;
        if (client.tryConnect(endpoint_, &error))
            (void)client.tryRequest("{\"op\":\"shutdown\"}",
                                    &response, &error);
        pump_.join();
    }

    const std::string &endpoint() const { return endpoint_; }

  private:
    service::ServiceCore core_;
    std::string endpoint_;
    service::SocketServer server_;
    bool started_ = false;
    std::thread pump_;
};

/** A coordinator over @p n fresh worker daemons. */
class Fleet
{
  public:
    explicit Fleet(std::size_t n,
                   const service::ServiceConfig &worker_cfg =
                       workerConfig())
    {
        std::vector<std::string> endpoints;
        for (std::size_t i = 0; i < n; ++i) {
            workers_.push_back(
                std::make_unique<WorkerDaemon>(worker_cfg));
            endpoints.push_back(workers_.back()->endpoint());
        }
        core_ = makeCoordinator(endpoints);
    }

    util::JsonValue request(const std::string &line)
    {
        return parse(core_->handleLine("test-client", line));
    }

    /**
     * One request straight to worker @p i, bypassing the coordinator.
     * The connection stays open as long as the fleet: closing it
     * would cancel the job if no executor had picked it up yet
     * (ServiceCore::clientGone), which unpins a pinned worker.
     */
    util::JsonValue requestWorker(std::size_t i, const std::string &line)
    {
        service::ServiceClient &client = workerClients_.emplace_back();
        std::string error, response;
        EXPECT_TRUE(client.tryConnect(workers_[i]->endpoint(), &error))
            << error;
        EXPECT_TRUE(client.tryRequest(line, &response, &error)) << error;
        return parse(response);
    }

    /** Tear a worker down; its socket goes away with it. */
    void killWorker(std::size_t i) { workers_[i].reset(); }

    service::ServiceCore &core() { return *core_; }

  private:
    std::vector<std::unique_ptr<WorkerDaemon>> workers_;
    std::unique_ptr<service::ServiceCore> core_;
    /** requestWorker()'s connections; closed before the workers stop. */
    std::vector<service::ServiceClient> workerClients_;
};

/** The reference run: same job executed directly, no fleet. */
std::string
directText(const std::string &job_json)
{
    util::JsonValue job;
    std::string error;
    EXPECT_TRUE(util::tryParseJson(job_json, &job, &error)) << error;
    service::JobSpec spec;
    EXPECT_TRUE(service::JobSpec::tryParse(job, true, &spec, &error))
        << error;
    util::JsonValue result = service::executeJob(spec, 2);
    std::vector<std::string> errors;
    std::string text = result.getString("text", "", &errors);
    EXPECT_FALSE(text.empty());
    return text;
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

std::string
submitLine(const std::string &job_json, bool wait = true)
{
    return std::string("{\"op\":\"submit\",\"wait\":") +
           (wait ? "true" : "false") + ",\"job\":" + job_json + "}";
}

std::string
idLine(const char *op, std::uint64_t id)
{
    return std::string("{\"op\":\"") + op +
           "\",\"id\":" + std::to_string(id) + "}";
}

constexpr const char *kSweepJob =
    "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
    "\"fast\":true}";

constexpr const char *kFaultySweepJob =
    "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
    "\"fast\":true,\"faults\":{\"corrupt_rate\":0.001,\"seed\":7,"
    "\"max_faults\":50}}";

constexpr const char *kModelJob =
    "{\"type\":\"model\",\"benchmark\":\"mp3d\",\"procs\":8,"
    "\"refs\":2000,\"fast\":true}";

TEST(Coordinator, PingAndBadOps)
{
    Fleet fleet(1);
    std::vector<std::string> errors;

    util::JsonValue ping = fleet.request("{\"op\":\"ping\"}");
    EXPECT_TRUE(ping.getBool("ok", false, &errors));

    util::JsonValue bad = fleet.request("{\"op\":\"warp\"}");
    EXPECT_FALSE(bad.getBool("ok", true, &errors));

    util::JsonValue cancel = fleet.request(idLine("cancel", 1));
    EXPECT_FALSE(cancel.getBool("ok", true, &errors));

    util::JsonValue garbled = fleet.request("not json");
    EXPECT_FALSE(garbled.getBool("ok", true, &errors));

    util::JsonValue no_job = fleet.request("{\"op\":\"submit\"}");
    EXPECT_FALSE(no_job.getBool("ok", true, &errors));
}

// The partition property. For every fleet size the split sweep must
// be byte-identical to the direct run — same text, not just same
// numbers — with fault injection both off and on.
TEST(Coordinator, SplitSweepMatchesDirectRunAcrossFleetSizes)
{
    const std::string expected = directText(kSweepJob);
    const std::string expected_faulty = directText(kFaultySweepJob);
    ASSERT_NE(expected, expected_faulty)
        << "fault injection changed nothing; the faulty variant "
           "is not exercising a distinct code path";

    for (std::size_t k : {1u, 2u, 3u}) {
        Fleet fleet(k);
        std::vector<std::string> errors;

        util::JsonValue r = fleet.request(submitLine(kSweepJob));
        ASSERT_TRUE(r.getBool("ok", false, &errors))
            << "k=" << k << ": "
            << r.getString("error", "", &errors);
        EXPECT_EQ(r.getString("state", "", &errors), "done");
        const util::JsonValue *result = r.find("result");
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result->getString("kind", "", &errors), "sweep");
        EXPECT_EQ(result->getString("text", "", &errors), expected)
            << "fleet of " << k
            << " workers diverged from the direct run";

        util::JsonValue rf =
            fleet.request(submitLine(kFaultySweepJob));
        ASSERT_TRUE(rf.getBool("ok", false, &errors))
            << "k=" << k << " (faults): "
            << rf.getString("error", "", &errors);
        const util::JsonValue *fresult = rf.find("result");
        ASSERT_NE(fresult, nullptr);
        EXPECT_EQ(fresult->getString("text", "", &errors),
                  expected_faulty)
            << "fleet of " << k
            << " workers diverged from the direct faulty run";

        util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
        const util::JsonValue *fstats = stats.find("fleet");
        ASSERT_NE(fstats, nullptr);
        EXPECT_EQ(fstats->getU64("sweep_splits", 0, &errors), 2u);
    }
}

TEST(Coordinator, CsvSweepMatchesDirectRun)
{
    const std::string csv_job =
        "{\"type\":\"sweep\",\"figure\":\"fig3\",\"refs\":600,"
        "\"fast\":true,\"csv\":true}";
    const std::string expected = directText(csv_job);
    Fleet fleet(2);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(csv_job));
    ASSERT_TRUE(r.getBool("ok", false, &errors))
        << r.getString("error", "", &errors);
    const util::JsonValue *result = r.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->getString("text", "", &errors), expected);
}

TEST(Coordinator, RequeuesPartsAroundADeadWorker)
{
    Fleet fleet(3);
    fleet.killWorker(1);

    const std::string expected = directText(kSweepJob);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(kSweepJob));
    ASSERT_TRUE(r.getBool("ok", false, &errors))
        << r.getString("error", "", &errors);
    const util::JsonValue *result = r.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->getString("text", "", &errors), expected)
        << "requeued parts diverged from the direct run";

    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    const util::JsonValue *fstats = stats.find("fleet");
    ASSERT_NE(fstats, nullptr);
    // 27 fig3 blocks over 3 shards: some parts landed on the dead
    // worker and had to fail over to its successor.
    EXPECT_GE(fstats->getU64("requeues", 0, &errors), 1u);
    EXPECT_EQ(fstats->getU64("failures", 1, &errors), 0u);
    const util::JsonValue *workers = stats.find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_EQ(workers->items().size(), 3u);
    EXPECT_FALSE(
        workers->items()[1].getBool("alive", true, &errors));
    EXPECT_TRUE(workers->items()[1].find("statsz")->isNull());
}

TEST(Coordinator, CoalescesConcurrentDuplicateSubmits)
{
    // One worker, so the coordinator runs two executors; two sleepers
    // pin both, which keeps the leader below queued long enough for
    // the duplicate to attach deterministically.
    Fleet fleet(1);

    std::vector<std::thread> sleepers;
    for (int i = 0; i < 2; ++i) {
        sleepers.emplace_back([&fleet, i]() {
            std::vector<std::string> errors;
            util::JsonValue r = fleet.request(submitLine(
                "{\"type\":\"sleep\",\"ms\":" +
                std::to_string(600 + i) + "}"));
            EXPECT_TRUE(r.getBool("ok", false, &errors));
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));

    std::string first_line, second_line;
    std::thread leader([&fleet, &first_line]() {
        first_line =
            fleet.core().handleLine("a", submitLine(kModelJob));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::thread waiter([&fleet, &second_line]() {
        second_line =
            fleet.core().handleLine("b", submitLine(kModelJob));
    });
    leader.join();
    waiter.join();
    for (std::thread &t : sleepers)
        t.join();

    std::vector<std::string> errors;
    util::JsonValue first = parse(first_line);
    util::JsonValue second = parse(second_line);
    ASSERT_TRUE(first.getBool("ok", false, &errors));
    ASSERT_TRUE(second.getBool("ok", false, &errors));
    EXPECT_FALSE(first.getBool("coalesced", false, &errors));
    EXPECT_TRUE(second.getBool("coalesced", false, &errors));
    // A coalesced duplicate answers with its leader's id.
    EXPECT_EQ(first.getU64("id", 0, &errors),
              second.getU64("id", 1, &errors));
    ASSERT_NE(first.find("result"), nullptr);
    ASSERT_NE(second.find("result"), nullptr);
    EXPECT_EQ(first.find("result")->dump(),
              second.find("result")->dump());

    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    EXPECT_EQ(stats.getU64("coalesced", 0, &errors), 1u);
    const util::JsonValue *fstats = stats.find("fleet");
    ASSERT_NE(fstats, nullptr);
    EXPECT_EQ(fstats->getU64("coalesced", 0, &errors), 1u);
    EXPECT_EQ(fstats->getU64("forwarded", 0, &errors), 3u)
        << "two sleepers and one model job; the duplicate must not "
           "be forwarded";
}

TEST(Coordinator, PollReplaysTheRetainedAnswer)
{
    Fleet fleet(1);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(kModelJob));
    ASSERT_TRUE(r.getBool("ok", false, &errors));
    std::uint64_t id = r.getU64("id", 0, &errors);
    ASSERT_GT(id, 0u);

    util::JsonValue p = fleet.request(idLine("poll", id));
    ASSERT_TRUE(p.getBool("ok", false, &errors));
    EXPECT_EQ(p.getString("op", "", &errors), "poll");
    EXPECT_EQ(p.getString("state", "", &errors), "done");
    ASSERT_NE(p.find("result"), nullptr);
    EXPECT_EQ(p.find("result")->dump(), r.find("result")->dump());

    util::JsonValue unknown = fleet.request(idLine("poll", 9999));
    EXPECT_FALSE(unknown.getBool("ok", true, &errors));
}

TEST(Coordinator, DegradesToTheModelTierWhenNoWorkerAnswers)
{
    // A fleet whose one worker endpoint was never bound: every
    // forward is a transport failure.
    const std::vector<std::string> dead = {uniqueEndpoint()};
    service::ServiceConfig cfg;
    cfg.degradeToModel = true;
    std::unique_ptr<service::ServiceCore> degrading =
        makeCoordinator(dead, cfg);

    std::vector<std::string> errors;
    for (int attempt = 0; attempt < 2; ++attempt) {
        util::JsonValue r = parse(
            degrading->handleLine("c", submitLine(kModelJob)));
        ASSERT_TRUE(r.getBool("ok", false, &errors))
            << r.getString("error", "", &errors);
        EXPECT_TRUE(r.getBool("degraded", false, &errors));
        // Never memoized: the resubmit degrades again.
        EXPECT_FALSE(r.getBool("cached", true, &errors));
        ASSERT_NE(r.find("result"), nullptr);
    }
    util::JsonValue stats =
        parse(degrading->handleLine("c", "{\"op\":\"statsz\"}"));
    EXPECT_EQ(stats.getU64("degraded", 0, &errors), 2u);
    EXPECT_EQ(stats.find("fleet")->getU64("failures", 0, &errors), 2u);

    // Without the degrade escape hatch the same submit is answered
    // like an admission shed: a structured failure with a retry hint,
    // not a hang.
    cfg.degradeToModel = false;
    cfg.retryAfterMs = 125;
    std::unique_ptr<service::ServiceCore> failing =
        makeCoordinator(dead, cfg);
    util::JsonValue f =
        parse(failing->handleLine("c", submitLine(kModelJob)));
    EXPECT_FALSE(f.getBool("ok", true, &errors));
    EXPECT_EQ(f.getString("state", "", &errors), "failed");
    EXPECT_NE(f.getString("error", "", &errors).find("unavailable"),
              std::string::npos);
    std::uint64_t retry = f.getU64("retry_after_ms", 0, &errors);
    EXPECT_GE(retry, 125u);
    EXPECT_LT(retry, 250u);
}

TEST(Coordinator, WorkerDegradedAnswerIsTaggedAndNeverCached)
{
    // A worker that degrades instead of shedding, pinned full by two
    // sleepers submitted to it directly: every job the coordinator
    // forwards comes back as a model-tier estimate.
    service::ServiceConfig wcfg = workerConfig();
    wcfg.queueDepth = 2;
    wcfg.degradeToModel = true;
    Fleet fleet(1, wcfg);
    std::vector<std::string> errors;
    for (int i = 0; i < 2; ++i) {
        util::JsonValue pin = fleet.requestWorker(
            0, submitLine("{\"type\":\"sleep\",\"ms\":1500}", false));
        ASSERT_TRUE(pin.getBool("ok", false, &errors));
    }

    for (int attempt = 0; attempt < 2; ++attempt) {
        util::JsonValue r = fleet.request(submitLine(kModelJob));
        ASSERT_TRUE(r.getBool("ok", false, &errors))
            << r.getString("error", "", &errors);
        EXPECT_EQ(r.getString("state", "", &errors), "done");
        EXPECT_TRUE(r.getBool("degraded", false, &errors))
            << "attempt " << attempt;
        EXPECT_FALSE(r.getBool("cached", true, &errors))
            << "a degraded answer entered the coordinator's cache";
        ASSERT_NE(r.find("result"), nullptr);
    }
    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    EXPECT_EQ(stats.getU64("cache_answers", 1, &errors), 0u);
    EXPECT_EQ(stats.getU64("degraded", 0, &errors), 2u);
    EXPECT_EQ(stats.find("cache")->getU64("stores", 1, &errors), 0u);
}

TEST(Coordinator, CancelDeadlinesAndAsyncPollWork)
{
    // One worker: the coordinator has two executors, pinned here by
    // two async sleepers so later submits queue at the coordinator.
    Fleet fleet(1);
    std::vector<std::string> errors;
    std::vector<std::uint64_t> sleepers;
    for (int i = 0; i < 2; ++i) {
        util::JsonValue r = fleet.request(submitLine(
            "{\"type\":\"sleep\",\"ms\":" + std::to_string(500 + i) +
                "}",
            false));
        ASSERT_TRUE(r.getBool("ok", false, &errors));
        sleepers.push_back(r.getU64("id", 0, &errors));
    }

    // A queued deadline expires before dispatch.
    util::JsonValue late = fleet.request(submitLine(
        "{\"type\":\"model\",\"benchmark\":\"water\",\"procs\":8,"
        "\"refs\":2000,\"fast\":true,\"deadline_ms\":50}",
        false));
    ASSERT_TRUE(late.getBool("ok", false, &errors));
    EXPECT_EQ(late.getString("state", "", &errors), "queued");

    // An explicit cancel of a queued job (a different spec: an equal
    // one would coalesce onto the job above).
    util::JsonValue doomed = fleet.request(submitLine(kModelJob, false));
    ASSERT_TRUE(doomed.getBool("ok", false, &errors));
    util::JsonValue cancelled = fleet.request(
        idLine("cancel", doomed.getU64("id", 0, &errors)));
    ASSERT_TRUE(cancelled.getBool("ok", false, &errors));
    EXPECT_EQ(cancelled.getString("state", "", &errors), "cancelled");

    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    util::JsonValue expired =
        fleet.request(idLine("poll", late.getU64("id", 0, &errors)));
    EXPECT_EQ(expired.getString("state", "", &errors), "cancelled");
    EXPECT_NE(expired.getString("error", "", &errors).find("deadline"),
              std::string::npos);

    // wait:false then poll: the sleepers finish on the worker and
    // their answers are polled back through the coordinator.
    for (std::uint64_t id : sleepers) {
        std::string state = "running";
        for (int i = 0; i < 200 && state != "done"; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
            state = fleet.request(idLine("poll", id))
                        .getString("state", "", &errors);
        }
        EXPECT_EQ(state, "done") << "sleeper " << id;
    }

    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    EXPECT_EQ(stats.getU64("cancelled", 0, &errors), 2u);
    EXPECT_EQ(stats.getU64("deadline_expired", 0, &errors), 1u);
    EXPECT_EQ(stats.find("fleet")->getU64("forwarded", 0, &errors), 2u)
        << "a cancelled or expired job was forwarded anyway";
}

TEST(Coordinator, StatszAggregatesWorkerSections)
{
    Fleet fleet(2);
    std::vector<std::string> errors;
    util::JsonValue r = fleet.request(submitLine(kModelJob));
    ASSERT_TRUE(r.getBool("ok", false, &errors));

    util::JsonValue stats = fleet.request("{\"op\":\"statsz\"}");
    ASSERT_TRUE(stats.getBool("ok", false, &errors));
    EXPECT_EQ(stats.getString("role", "", &errors), "fleet");
    EXPECT_EQ(stats.getU64("submitted", 0, &errors), 1u);
    EXPECT_EQ(stats.getU64("completed", 0, &errors), 1u);

    const util::JsonValue *fstats = stats.find("fleet");
    ASSERT_NE(fstats, nullptr);
    EXPECT_EQ(fstats->getU64("workers", 0, &errors), 2u);
    EXPECT_EQ(fstats->getU64("forwarded", 0, &errors), 1u);

    const util::JsonValue *workers = stats.find("workers");
    ASSERT_NE(workers, nullptr);
    ASSERT_EQ(workers->items().size(), 2u);
    for (const util::JsonValue &w : workers->items()) {
        EXPECT_FALSE(w.getString("endpoint", "", &errors).empty());
        EXPECT_TRUE(w.getBool("alive", false, &errors));
        const util::JsonValue *wstats = w.find("statsz");
        ASSERT_NE(wstats, nullptr);
        EXPECT_TRUE(wstats->isObject());
    }

    // The one model job completed on exactly one of the workers.
    const util::JsonValue *totals = stats.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->getU64("submitted", 0, &errors), 1u);
    EXPECT_EQ(totals->getU64("completed", 0, &errors), 1u);

    // The schema (DESIGN.md §13.4), pinned key by key and in order:
    // perfbench/run.py and scripts/fleet_smoke.sh read these names.
    // A worker's statsz is a plain ServiceCore's; the coordinator's
    // is the same with "workers" turned into the per-worker array and
    // the executor's sections appended.
    const std::vector<std::string> core_keys = {
        "ok", "op", "workers", "queue_depth", "active", "running",
        "submitted", "admitted", "shed", "completed", "failed",
        "timed_out", "late_completions", "cache_answers",
        "bad_requests", "cancelled", "deadline_expired", "degraded",
        "coalesced", "cache", "latency"};
    std::vector<std::string> coordinator_keys = core_keys;
    for (const char *key : {"role", "fleet", "totals"})
        coordinator_keys.push_back(key);
    EXPECT_EQ(keysOf(stats), coordinator_keys);
    EXPECT_EQ(keysOf(*fstats),
              (std::vector<std::string>{"workers", "forwarded",
                                        "coalesced", "requeues",
                                        "sweep_splits",
                                        "parts_forwarded",
                                        "failures"}));
    for (const util::JsonValue &w : workers->items()) {
        EXPECT_EQ(keysOf(w), (std::vector<std::string>{
                                 "endpoint", "alive", "forwards",
                                 "failures", "sheds", "statsz"}));
        EXPECT_EQ(keysOf(*w.find("statsz")), core_keys);
    }
    EXPECT_EQ(keysOf(*totals),
              (std::vector<std::string>{
                  "submitted", "admitted", "shed", "completed",
                  "failed", "timed_out", "cache_answers", "cancelled",
                  "degraded", "coalesced", "bad_requests",
                  "late_completions", "deadline_expired"}));
}

} // namespace
} // namespace ringsim::fleet
