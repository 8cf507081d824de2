/**
 * @file
 * Experiment-service core: admission, scheduling and memoization.
 *
 * ServiceCore is the transport-independent heart of ringsim_serve
 * and ringsim_fleetd. It speaks one NDJSON request per line through
 * handleLine() and returns one NDJSON response line, so the socket
 * server is a thin pump and tests can drive the whole service
 * in-process.
 *
 * Request shapes (all objects, one per line):
 *
 *   {"op":"ping"}
 *   {"op":"submit","client":"c1","wait":false,"job":{...}}
 *   {"op":"poll","id":7}
 *   {"op":"cancel","id":7}
 *   {"op":"statsz"}
 *   {"op":"shutdown"}
 *
 * Scheduling: admitted jobs are executed by a runner::ExperimentRunner
 * pool of ServiceConfig::workers threads. Admission is bounded —
 * (queued + running) never exceeds queueDepth; a submit over the bound
 * is shed with {"ok":false,"error":"overloaded...","retry_after_ms":N}
 * where the hint scales with occupancy. Dispatch is round-robin over
 * clients (each pool slot picks the next job from the least-recently
 * served client's FIFO), so one chatty client cannot starve others.
 *
 * Execution: an admitted job's answer comes from the Executor
 * (service/executor.hpp) — in-process for ringsim_serve, forwarded to
 * worker daemons for ringsim_fleetd. Everything else described here
 * is the same code for both daemons.
 *
 * Memoization: a cacheable job's canonical spec is hashed (cacheKey)
 * and looked up in the two-tier ResultCache before admission; a hit
 * answers instantly without consuming a pool slot. Results are stored
 * on completion. The determinism contract (PR 1/3: byte-identical
 * results at any worker count) is what makes this legal.
 *
 * Watchdog: jobs running past ServiceConfig::watchdog are reported
 * timed_out. Detection is lazy — overdue jobs are marked when any
 * poll/statsz/wait touches the table — because a compute thread cannot
 * be interrupted; a late completion is counted and discarded.
 *
 * Deadlines and cancellation: a job may carry deadline_ms (wall clock
 * from admission). A queued job past its deadline is cancelled before
 * it ever runs; a running one is abandoned exactly like a watchdog
 * timeout. {"op":"cancel","id":N} cancels explicitly, and a client
 * that disconnects takes its still-queued jobs with it
 * (clientGone()). Cancelled/expired queued jobs release their
 * admission slot when their pool task drains.
 *
 * Degradation: with ServiceConfig::degradeToModel, a run/sweep/model
 * submit that admission would shed — or one the executor reports no
 * one could answer — is answered from the analytic-model tier, tagged
 * degraded:true with an error bound; a watchdog-abandoned job
 * surfaces the same estimate as a partial result on the next poll.
 * Without it, both answer {"ok":false,...,"retry_after_ms":N}.
 * Degraded answers (including an executor's own) are never cached.
 *
 * Concurrency: ServiceCore is a JobTable (job_table.hpp) — all job
 * state — under one core::Mutex (annotations checked by Clang Thread
 * Safety Analysis, DESIGN.md §15), plus I/O: parsing, the cache, the
 * pool, the executor, the degraded-model solve, waiting, rendering.
 * Execution, the solve and cache publication run *outside* the lock;
 * each locked section is one JobTable transition, the same ones the
 * lifecycle checker (lifecycle_check.hpp) explores.
 */

#ifndef RINGSIM_SERVICE_SERVER_HPP
#define RINGSIM_SERVICE_SERVER_HPP

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/thread_annotations.hpp"
#include "runner/experiment_runner.hpp"
#include "service/config.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "service/job_table.hpp"
#include "service/result_cache.hpp"
#include "stats/stats.hpp"

namespace ringsim::service {

class ServiceCore
{
  public:
    /**
     * @p executor answers admitted jobs; null runs them in-process
     * (a LocalExecutor). Its pool holds cfg.workers threads.
     */
    explicit ServiceCore(const ServiceConfig &cfg,
                         std::unique_ptr<Executor> executor = nullptr);

    /** Drains the pool (running jobs finish; queued jobs still run). */
    ~ServiceCore();

    ServiceCore(const ServiceCore &) = delete;
    ServiceCore &operator=(const ServiceCore &) = delete;

    /**
     * Handle one NDJSON request line from @p client (the connection's
     * identity, used for fairness when the request names no "client")
     * and return the one-line response (no trailing newline). Safe to
     * call from concurrent connection threads.
     */
    std::string handleLine(const std::string &client,
                           const std::string &line) EXCLUDES(mutex_);

    /** True once a shutdown request has been accepted. */
    bool shutdownRequested() const EXCLUDES(mutex_);

    /**
     * The connection identified by @p client is gone: cancel its
     * still-queued jobs (running jobs finish — their results are
     * cacheable even if nobody is left to read them).
     */
    void clientGone(const std::string &client) EXCLUDES(mutex_);

    /** The cache (exposed for tests and statsz). */
    const ResultCache &cache() const { return *cache_; }

    /** The chaos injector, or nullptr when chaos is off. */
    fault::ServiceFaultInjector *chaosInjector() { return chaos_.get(); }

  private:
    std::string handleSubmit(const std::string &client,
                             const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handlePoll(const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handleCancel(const util::JsonValue &req)
        EXCLUDES(mutex_);
    std::string handleStatsz() EXCLUDES(mutex_);

    /** Count a malformed request; its error line for @p op. */
    std::string badRequest(const char *op, const std::string &message)
        EXCLUDES(mutex_);

    /** ServiceCore's own statsz sections, under the lock. */
    util::JsonValue statszSnapshot() EXCLUDES(mutex_);

    /** Deterministic per-client retry jitter in [0, retryAfterMs). */
    std::uint64_t retryJitter(const std::string &client) const;

    /** May @p spec be answered from the analytic-model tier? */
    bool mayDegrade(const JobSpec &spec) const;

    /**
     * The one degrade path (admission shed, executor unavailable,
     * watchdog escalation): the model-tier estimate for @p spec, or
     * nullopt when mayDegrade() refuses or the solve fails. Runs
     * off-lock; the caller never caches it.
     */
    std::optional<util::JsonValue>
    degradedResult(const JobSpec &spec) const;

    /** Pool slot body: pick the next job fairly and execute it. */
    void runOne() EXCLUDES(mutex_);

    /** Expire overdue jobs; wake the waiters if any expired. */
    void reapLocked() REQUIRES(mutex_);

    /** Render a job's poll/submit view. */
    util::JsonValue jobJsonLocked(const JobRecord &rec) const
        REQUIRES(mutex_);

    const ServiceConfig cfg_;
    std::unique_ptr<ResultCache> cache_;
    std::unique_ptr<fault::ServiceFaultInjector> chaos_;
    /** Declared before pool_: pool threads use it until they drain. */
    std::unique_ptr<Executor> executor_;
    std::unique_ptr<runner::ExperimentRunner> pool_;

    mutable core::Mutex mutex_;
    std::condition_variable done_cv_;
    bool shutdown_ GUARDED_BY(mutex_) = false;
    JobTable table_ GUARDED_BY(mutex_);

    /** Job service latency (admission to completion), milliseconds. */
    stats::Sampler latency_ms_ GUARDED_BY(mutex_);
    stats::Histogram latency_hist_ GUARDED_BY(mutex_);
};

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_SERVER_HPP
