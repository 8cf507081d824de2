#include "server.hpp"

#include <algorithm>

#include "service/cache_key.hpp"
#include "util/logging.hpp"

namespace ringsim::service {

namespace {

using Clock = std::chrono::steady_clock;

util::JsonValue
errorResponse(const char *op, const std::string &message)
{
    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(false));
    if (op)
        o.set("op", util::JsonValue::string(op));
    o.set("error", util::JsonValue::string(message));
    return o;
}

/** The error line "id = N: @p what" for @p op. */
std::string
idError(const char *op, std::uint64_t id, const char *what)
{
    return errorResponse(op, strprintf("id = %llu: %s",
                                       static_cast<unsigned long long>(id),
                                       what))
        .dump();
}

/** Set each (name, count) on @p o, in order (statsz key order). */
void
setCounts(util::JsonValue *o,
          std::initializer_list<std::pair<const char *, std::uint64_t>>
              counts)
{
    for (const auto &[name, n] : counts)
        o->set(name, util::JsonValue::integer(n));
}

} // namespace

ServiceCore::ServiceCore(const ServiceConfig &cfg,
                         std::unique_ptr<Executor> executor)
    : cfg_(cfg), executor_(std::move(executor)), table_(cfg_),
      latency_hist_(0, 60'000, 600)
{
    cfg_.validate();
    if (!executor_)
        executor_ = std::make_unique<LocalExecutor>(cfg_.jobsPerSweep);
    cache_ = std::make_unique<ResultCache>(cfg_.memCacheEntries,
                                           cfg_.cacheDir);
    if (cfg_.chaos.enabled()) {
        chaos_ =
            std::make_unique<fault::ServiceFaultInjector>(cfg_.chaos);
        cache_->setChaos(chaos_.get());
        warn("service: CHAOS injection enabled (seed %llu) — "
             "expect torn writes, garbled and dropped responses",
             static_cast<unsigned long long>(cfg_.chaos.seed));
    }
    pool_ = std::make_unique<runner::ExperimentRunner>(cfg_.workers);
    inform("service: %u workers, queue depth %zu, cache %zu entries%s",
           pool_->jobs(), cfg_.queueDepth, cfg_.memCacheEntries,
           cfg_.cacheDir.empty() ? "" : (" + disk " + cfg_.cacheDir)
                                            .c_str());
}

ServiceCore::~ServiceCore()
{
    pool_->waitAll();
}

bool
ServiceCore::shutdownRequested() const
{
    core::MutexLock lock(mutex_);
    return shutdown_;
}

std::string
ServiceCore::handleLine(const std::string &client,
                        const std::string &line)
{
    util::JsonValue req;
    std::string parse_error;
    if (!tryParseJson(line, &req, &parse_error))
        return badRequest(nullptr, "bad request: " + parse_error);
    if (!req.isObject())
        return badRequest(nullptr, "bad request: expected a JSON object");
    std::vector<std::string> errors;
    std::string op = req.getString("op", "", &errors);
    if (op == "ping") {
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("ping"));
        return o.dump();
    }
    if (op == "submit")
        return handleSubmit(client, req);
    if (op == "poll")
        return handlePoll(req);
    if (op == "cancel")
        return handleCancel(req);
    if (op == "statsz")
        return handleStatsz();
    if (op == "shutdown") {
        {
            core::MutexLock lock(mutex_);
            shutdown_ = true;
        }
        done_cv_.notify_all();
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("shutdown"));
        return o.dump();
    }
    return badRequest(nullptr, "op = '" + op +
                                   "': expected ping, submit, poll, "
                                   "cancel, statsz or shutdown");
}

std::string
ServiceCore::handleSubmit(const std::string &client,
                          const util::JsonValue &req)
{
    std::vector<std::string> errors;
    std::string who = req.getString("client", client, &errors);
    bool wait = req.getBool("wait", false, &errors);
    const util::JsonValue *job = req.find("job");
    if (!job)
        return badRequest("submit",
                          "job = <missing>: a submit needs a job object");
    JobSpec spec;
    std::string parse_error;
    if (!JobSpec::tryParse(*job, cfg_.enableTestJobs, &spec,
                           &parse_error) ||
        !errors.empty())
        return badRequest("submit", parse_error.empty() ? errors.front()
                                                        : parse_error);

    std::string key;
    if (spec.cacheable()) {
        key = cacheKey(spec.canonical().dump(), cfg_.salt);
        std::optional<std::string> hit = cache_->get(key);
        if (hit) {
            // A corrupt disk entry must recompute, not error out.
            util::JsonValue result;
            std::string cache_error;
            if (tryParseJson(*hit, &result, &cache_error)) {
                std::uint64_t id;
                {
                    core::MutexLock lock(mutex_);
                    id = table_.cacheAnswer();
                }
                util::JsonValue o = util::JsonValue::object();
                o.set("ok", util::JsonValue::boolean(true));
                o.set("op", util::JsonValue::string("submit"));
                o.set("id", util::JsonValue::integer(id));
                o.set("state", util::JsonValue::string("done"));
                o.set("cached", util::JsonValue::boolean(true));
                o.set("key", util::JsonValue::string(key));
                o.set("result", std::move(result));
                return o.dump();
            }
            warn("service: dropping unparsable cache entry %s: %s",
                 key.c_str(), cache_error.c_str());
        }
    }

    // Admission decision under the lock; the shed/degraded responses
    // (and the degraded-model solve itself) compose outside it.
    const bool degradable = mayDegrade(spec);
    JobTable::Admission adm;
    {
        core::MutexLock lock(mutex_);
        adm = table_.admit(who, spec, *job, key, degradable,
                           Clock::now());
    }
    using Outcome = JobTable::Admission::Outcome;
    const std::uint64_t id = adm.id;
    const bool coalesced = adm.outcome == Outcome::Coalesced;

    if (adm.outcome == Outcome::Shed) {
        // Model-tier fallback: answer in milliseconds on this
        // connection's thread instead of shedding. The estimate is
        // never cached — the exact answer should still be computed
        // (and memoized) on a calm retry.
        std::optional<util::JsonValue> estimate;
        if (degradable)
            estimate = degradedResult(spec);
        if (estimate) {
            {
                core::MutexLock lock(mutex_);
                table_.degradedAnswer();
            }
            util::JsonValue o = util::JsonValue::object();
            o.set("ok", util::JsonValue::boolean(true));
            o.set("op", util::JsonValue::string("submit"));
            o.set("id", util::JsonValue::integer(id));
            o.set("state", util::JsonValue::string("done"));
            o.set("cached", util::JsonValue::boolean(false));
            o.set("degraded", util::JsonValue::boolean(true));
            o.set("result", std::move(*estimate));
            return o.dump();
        }
        // Scale the hint with how many "pool drains" of work are
        // already queued: a deeper backlog earns a longer backoff.
        std::size_t queued = adm.busy - std::min<std::size_t>(
                                            adm.busy, pool_->jobs());
        std::uint64_t factor = 1 + queued / std::max(1u, pool_->jobs());
        util::JsonValue o =
            errorResponse("submit",
                          strprintf("overloaded: %zu of %zu "
                                    "slots busy",
                                    adm.busy, cfg_.queueDepth));
        o.set("retry_after_ms",
              util::JsonValue::integer(cfg_.retryAfterMs * factor +
                                       retryJitter(who)));
        return o.dump();
    }

    if (!coalesced)
        pool_->submit([this]() { runOne(); });

    if (!wait) {
        util::JsonValue o = util::JsonValue::object();
        o.set("ok", util::JsonValue::boolean(true));
        o.set("op", util::JsonValue::string("submit"));
        o.set("id", util::JsonValue::integer(id));
        o.set("state", util::JsonValue::string(jobStateName(
                           coalesced ? adm.leaderState
                                     : JobState::Queued)));
        o.set("cached", util::JsonValue::boolean(false));
        if (coalesced)
            o.set("coalesced", util::JsonValue::boolean(true));
        if (!key.empty())
            o.set("key", util::JsonValue::string(key));
        return o.dump();
    }

    // Synchronous submit: block this connection until the job leaves
    // the pool (or the lazy watchdog declares it overdue).
    core::UniqueLock lock(mutex_);
    for (;;) {
        reapLocked();
        const JobRecord *rec = table_.find(id);
        if (!rec)
            return idError("submit", id,
                           "record evicted before wait finished");
        if (!inFlight(rec->state)) {
            util::JsonValue o = jobJsonLocked(*rec);
            o.set("op", util::JsonValue::string("submit"));
            if (coalesced)
                o.set("coalesced", util::JsonValue::boolean(true));
            return o.dump();
        }
        done_cv_.wait_for(lock.native(),
                          std::chrono::milliseconds(50));
    }
}

std::string
ServiceCore::handlePoll(const util::JsonValue &req)
{
    std::vector<std::string> errors;
    std::uint64_t id = req.getU64("id", 0, &errors);
    if (!errors.empty() || id == 0)
        return badRequest("poll", errors.empty()
                                      ? "id = 0: a poll needs the id a "
                                        "submit returned"
                                      : errors.front());

    // First pass under the lock: either render the job's state, or —
    // for the first poll of a watchdog-abandoned degradable job —
    // claim the degradation escalation and fall through to compute
    // the model estimate off-lock.
    JobSpec degrade_spec;
    {
        core::MutexLock lock(mutex_);
        reapLocked();
        const JobRecord *rec = table_.find(id);
        if (!rec)
            return idError("poll", id, "unknown or expired job");
        // The claim succeeds exactly once across concurrent pollers.
        const JobSpec *claimed = table_.claimDegrade(id);
        if (!claimed) {
            util::JsonValue o = jobJsonLocked(*rec);
            o.set("op", util::JsonValue::string("poll"));
            return o.dump();
        }
        degrade_spec = *claimed;
    }

    // Watchdog escalation: compute the model-tier estimate outside
    // the lock so other requests keep flowing, then attach it (if
    // the record still exists) so the caller gets a partial answer
    // instead of a bare timeout.
    std::optional<util::JsonValue> estimate =
        degradedResult(degrade_spec);

    core::MutexLock lock(mutex_);
    const JobRecord *rec = table_.attachDegraded(
        id, estimate ? std::optional<std::string>(estimate->dump())
                     : std::nullopt);
    if (!rec)
        return idError("poll", id,
                       "record evicted during degraded escalation");
    util::JsonValue o = jobJsonLocked(*rec);
    o.set("op", util::JsonValue::string("poll"));
    return o.dump();
}

std::string
ServiceCore::handleCancel(const util::JsonValue &req)
{
    std::vector<std::string> errors;
    std::uint64_t id = req.getU64("id", 0, &errors);
    if (!errors.empty() || id == 0)
        return badRequest("cancel", errors.empty()
                                        ? "id = 0: a cancel needs the id "
                                          "a submit returned"
                                        : errors.front());
    core::MutexLock lock(mutex_);
    const JobRecord *rec = table_.cancel(id);
    if (!rec)
        return idError("cancel", id, "unknown or expired job");
    done_cv_.notify_all();
    util::JsonValue o = jobJsonLocked(*rec);
    o.set("op", util::JsonValue::string("cancel"));
    return o.dump();
}

std::string
ServiceCore::badRequest(const char *op, const std::string &message)
{
    {
        core::MutexLock lock(mutex_);
        table_.badRequest();
    }
    return errorResponse(op, message).dump();
}

void
ServiceCore::clientGone(const std::string &client)
{
    core::MutexLock lock(mutex_);
    table_.clientGone(client);
    done_cv_.notify_all();
}

std::uint64_t
ServiceCore::retryJitter(const std::string &client) const
{
    // Deterministic per-client spread in [0, retryAfterMs) so a
    // thundering herd of shed clients desynchronizes instead of all
    // retrying on the same beat. Same client => same jitter, so the
    // backoff stays reproducible in tests.
    if (cfg_.retryAfterMs == 0)
        return 0;
    return fingerprint64(client, 0x6a09e667f3bcc908ULL) %
           cfg_.retryAfterMs;
}

bool
ServiceCore::mayDegrade(const JobSpec &spec) const
{
    return cfg_.degradeToModel && spec.allowDegraded &&
           spec.degradable();
}

std::optional<util::JsonValue>
ServiceCore::degradedResult(const JobSpec &spec) const
{
    if (!mayDegrade(spec))
        return std::nullopt;
    try {
        return executeDegraded(spec, cfg_.jobsPerSweep);
    } catch (const std::exception &e) {
        warn("service: degraded fallback failed: %s", e.what());
        return std::nullopt;
    }
}

std::string
ServiceCore::handleStatsz()
{
    util::JsonValue o = statszSnapshot();
    // Off-lock: a remote executor's section does socket round trips.
    executor_->addStatsz(&o);
    return o.dump();
}

util::JsonValue
ServiceCore::statszSnapshot()
{
    CacheStats cs = cache_->stats();
    core::MutexLock lock(mutex_);
    reapLocked();
    const JobCounters &c = table_.counters();

    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(true));
    o.set("op", util::JsonValue::string("statsz"));
    setCounts(&o, {{"workers", pool_->jobs()},
                   {"queue_depth", cfg_.queueDepth},
                   {"active", table_.active()},
                   {"running", table_.running()},
                   {"submitted", c.submitted},
                   {"admitted", c.admitted},
                   {"shed", c.shed},
                   {"completed", c.completed},
                   {"failed", c.failed},
                   {"timed_out", c.timedOut},
                   {"late_completions", c.lateCompletions},
                   {"cache_answers", c.cacheAnswers},
                   {"bad_requests", c.badRequests},
                   {"cancelled", c.cancelled},
                   {"deadline_expired", c.deadlineExpired},
                   {"degraded", c.degraded},
                   {"coalesced", c.coalesced}});

    util::JsonValue cache = util::JsonValue::object();
    setCounts(&cache, {{"mem_hits", cs.memHits},
                       {"disk_hits", cs.diskHits},
                       {"misses", cs.misses},
                       {"stores", cs.stores},
                       {"evictions", cs.evictions},
                       {"disk_errors", cs.diskErrors},
                       {"quarantined", cs.quarantined},
                       {"scanned", cs.scanned},
                       {"tmp_cleaned", cs.tmpCleaned}});
    o.set("cache", std::move(cache));

    if (chaos_) {
        fault::ServiceFaultCounters fc = chaos_->counters();
        util::JsonValue chaos = util::JsonValue::object();
        setCounts(&chaos, {{"seed", cfg_.chaos.seed},
                           {"slow_writes", fc.slowWrites},
                           {"disconnects", fc.disconnects},
                           {"garbles", fc.garbles},
                           {"torn_writes", fc.tornWrites},
                           {"bit_flips", fc.bitFlips}});
        o.set("chaos", std::move(chaos));
    }

    util::JsonValue lat = util::JsonValue::object();
    lat.set("count", util::JsonValue::integer(latency_ms_.count()));
    lat.set("mean_ms", util::JsonValue::number(latency_ms_.mean()));
    lat.set("min_ms", util::JsonValue::number(
                          latency_ms_.count() ? latency_ms_.min() : 0));
    lat.set("max_ms", util::JsonValue::number(
                          latency_ms_.count() ? latency_ms_.max() : 0));
    lat.set("p50_ms",
            util::JsonValue::number(latency_hist_.quantile(0.50)));
    lat.set("p90_ms",
            util::JsonValue::number(latency_hist_.quantile(0.90)));
    lat.set("p99_ms",
            util::JsonValue::number(latency_hist_.quantile(0.99)));
    o.set("latency", std::move(lat));
    return o;
}

void
ServiceCore::runOne()
{
    std::optional<JobTable::Dispatch> picked;
    {
        core::MutexLock lock(mutex_);
        picked = table_.dispatch(Clock::now());
        if (!picked) {
            done_cv_.notify_all();
            return;
        }
    }
    const JobSpec &spec = picked->spec;

    Execution run;
    JobTable::Outcome outcome;
    try {
        run = executor_->execute(spec, picked->job);
    } catch (const std::exception &e) {
        outcome.ok = false;
        outcome.text = e.what();
    }
    // No executor could answer: fall back exactly as an admission
    // shed does — the model-tier estimate, else a retry hint.
    if (outcome.ok && !run.answered) {
        if (std::optional<util::JsonValue> estimate =
                degradedResult(spec)) {
            run.result = estimate->dump();
            run.degraded = true;
        } else {
            outcome.ok = false;
            outcome.unavailable = true;
            outcome.text = "unavailable: " + run.why;
        }
    }

    // Publish to the cache *before* taking the lock: the disk write
    // (and any chaos stall on it) must not serialize the whole
    // service, and memoization-before-visibility keeps the warm-hit
    // guarantee — a waiter that observes Done can resubmit and hit.
    // A job cancelled or abandoned while running still publishes:
    // its result is deterministic and correct, only unclaimed. A
    // degraded estimate never does.
    if (outcome.ok && !run.degraded && !picked->key.empty())
        cache_->put(picked->key, run.result);
    if (outcome.ok) {
        outcome.text = std::move(run.result);
        outcome.degraded = run.degraded;
    }

    core::MutexLock lock(mutex_);
    if (std::optional<double> ms =
            table_.complete(picked->id, std::move(outcome),
                            Clock::now())) {
        latency_ms_.add(*ms);
        latency_hist_.add(*ms);
    }
    done_cv_.notify_all();
}

void
ServiceCore::reapLocked()
{
    // Wake waiters only on a state change: every waiter reaps on each
    // wake-up, so an unconditional notify would have two waiters wake
    // each other in a busy loop for as long as their jobs run.
    if (table_.reap(Clock::now()))
        done_cv_.notify_all();
}

util::JsonValue
ServiceCore::jobJsonLocked(const JobRecord &rec) const
{
    util::JsonValue o = util::JsonValue::object();
    o.set("ok", util::JsonValue::boolean(true));
    o.set("id", util::JsonValue::integer(rec.id));
    o.set("state",
          util::JsonValue::string(jobStateName(rec.state)));
    o.set("cached", util::JsonValue::boolean(false));
    if (!rec.key.empty())
        o.set("key", util::JsonValue::string(rec.key));
    if (rec.state == JobState::Done ||
        (rec.degraded && !rec.result.empty())) {
        // A degraded estimate rides along even when the state is
        // timed_out: the caller sees both the abandonment and the
        // model-tier partial answer.
        util::JsonValue result;
        std::string parse_error;
        if (tryParseJson(rec.result, &result, &parse_error))
            o.set("result", std::move(result));
        else
            o.set("error", util::JsonValue::string(
                               "internal: stored result unparsable: " +
                               parse_error));
    }
    if (rec.degraded)
        o.set("degraded", util::JsonValue::boolean(true));
    if (rec.state == JobState::Failed ||
        rec.state == JobState::TimedOut ||
        rec.state == JobState::Cancelled) {
        o.set("error", util::JsonValue::string(rec.error));
    }
    if (rec.unavailable) {
        // Rendered like an admission shed, so clients back off and
        // retry instead of treating the failure as final.
        o.set("ok", util::JsonValue::boolean(false));
        o.set("retry_after_ms",
              util::JsonValue::integer(cfg_.retryAfterMs +
                                       retryJitter(rec.client)));
    }
    return o;
}

} // namespace ringsim::service
