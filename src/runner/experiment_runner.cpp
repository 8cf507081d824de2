#include "experiment_runner.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/thread_annotations.hpp"
#include "util/env.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace ringsim::runner {

unsigned
defaultJobs()
{
    if (auto v = util::envU64("RINGSIM_JOBS", 1))
        return static_cast<unsigned>(*v);
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::chrono::milliseconds
watchdogBudget(std::chrono::milliseconds fallback_ms)
{
    // Zero is a meaningful setting (watchdog disabled), so it must be
    // accepted from the environment just like from --watchdog-ms.
    if (auto v = util::envU64("RINGSIM_WATCHDOG_MS"))
        return std::chrono::milliseconds(*v);
    return fallback_ms;
}

std::vector<std::string>
RunPolicy::check() const
{
    std::vector<std::string> errors;
    if (maxAttempts == 0)
        errors.push_back(
            "maxAttempts = 0: a job needs at least one attempt");
    if (jobTimeout.count() < 0)
        errors.push_back(strprintf(
            "jobTimeout = %lld ms: watchdog budget cannot be negative",
            static_cast<long long>(jobTimeout.count())));
    return errors;
}

unsigned
resolveJobs(unsigned requested)
{
    return requested ? requested : defaultJobs();
}

std::uint64_t
jobSeed(std::uint64_t master_seed, std::uint64_t job_key)
{
    // splitmix64 over the combined words; bit-stable everywhere.
    return splitmix64Finalize(master_seed +
                              0x9e3779b97f4a7c15ULL * (job_key + 1));
}

const char *
jobStatusName(JobReport::Status s)
{
    switch (s) {
      case JobReport::Status::Ok:
        return "ok";
      case JobReport::Status::Failed:
        return "failed";
      case JobReport::Status::TimedOut:
        return "timed_out";
    }
    return "?";
}

std::string
failureSummaryJson(const std::vector<JobReport> &reports)
{
    std::size_t failed = 0;
    for (const JobReport &r : reports)
        if (r.status != JobReport::Status::Ok)
            ++failed;
    std::string out = strprintf(
        "{\"jobs\": %zu, \"failed\": %zu, \"failures\": [",
        reports.size(), failed);
    bool first = true;
    for (const JobReport &r : reports) {
        if (r.status == JobReport::Status::Ok)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += strprintf(
            "{\"index\": %zu, \"status\": \"%s\", \"attempts\": %u, "
            "\"seconds\": %.3f, \"error\": \"%s\"}",
            r.index, jobStatusName(r.status), r.attempts, r.seconds,
            util::jsonEscape(r.error).c_str());
    }
    out += "]}";
    return out;
}

/**
 * Pool state shared by the runner facade, its workers and the
 * watchdog. Held by shared_ptr everywhere so a doomed worker that is
 * stuck inside a job can outlive the pool and still shut down cleanly
 * whenever its job finally returns.
 */
struct ExperimentRunner::Impl
    : std::enable_shared_from_this<ExperimentRunner::Impl>
{
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /**
     * One worker thread's bookkeeping. jobIndex/jobStart/doomed are
     * guarded by the owning Impl's mutex (thread-safety analysis
     * cannot express GUARDED_BY across an outer object's lock, so
     * the discipline is enforced by review and TSan here).
     */
    struct WorkerCell
    {
        std::thread thread;
        /** Index of the running job; npos when idle. */
        std::size_t jobIndex = npos;
        std::chrono::steady_clock::time_point jobStart;
        /** Set by the watchdog: the worker must exit, unaccounted. */
        bool doomed = false;
    };

    unsigned jobs;
    RunPolicy policy;

    mutable core::Mutex mutex;
    std::condition_variable workReady;
    std::condition_variable allDone;
    std::deque<std::pair<std::function<void()>, std::size_t>> queue
        GUARDED_BY(mutex);
    /** Slot per submission. */
    std::vector<std::exception_ptr> errors GUARDED_BY(mutex);
    /** Slot per submission. */
    std::vector<JobReport> reports GUARDED_BY(mutex);
    std::size_t submitted GUARDED_BY(mutex) = 0;
    std::size_t completed GUARDED_BY(mutex) = 0;
    bool shutdown GUARDED_BY(mutex) = false;

    std::vector<std::shared_ptr<WorkerCell>> workers
        GUARDED_BY(mutex);
    /** Set once in start(), joined in stop(); never raced. */
    std::thread watchdog;
    bool watchdogStop GUARDED_BY(mutex) = false;
    std::condition_variable watchdogWake;

    void
    start() EXCLUDES(mutex)
    {
        if (jobs <= 1)
            return;
        core::MutexLock lock(mutex);
        for (unsigned i = 0; i < jobs; ++i)
            spawnWorkerLocked();
        if (policy.jobTimeout.count() > 0) {
            auto self = shared_from_this();
            watchdog = std::thread([self]() { self->watchdogLoop(); });
        }
    }

    void
    spawnWorkerLocked() REQUIRES(mutex)
    {
        auto cell = std::make_shared<WorkerCell>();
        auto self = shared_from_this();
        cell->thread =
            std::thread([self, cell]() { self->workerLoop(*cell); });
        workers.push_back(std::move(cell));
    }

    void
    workerLoop(WorkerCell &cell) EXCLUDES(mutex)
    {
        for (;;) {
            std::pair<std::function<void()>, std::size_t> item;
            {
                core::UniqueLock lock(mutex);
                while (!shutdown && queue.empty())
                    workReady.wait(lock.native());
                if (queue.empty() || cell.doomed)
                    return; // shutdown with drained queue
                item = std::move(queue.front());
                queue.pop_front();
                cell.jobIndex = item.second;
                cell.jobStart = std::chrono::steady_clock::now();
            }
            runJob(item.first, item.second, &cell);
            {
                core::MutexLock lock(mutex);
                if (cell.doomed) {
                    // The watchdog already declared this job timed out
                    // and replaced this worker; exit without touching
                    // the pool accounting again.
                    return;
                }
            }
        }
    }

    void
    runJob(std::function<void()> &job, std::size_t index,
           WorkerCell *cell) EXCLUDES(mutex)
    {
        auto t0 = std::chrono::steady_clock::now();
        std::exception_ptr error;
        std::string what;
        try {
            job();
        } catch (const std::exception &e) {
            error = std::current_exception();
            what = e.what();
        } catch (...) {
            error = std::current_exception();
            what = "unknown exception";
        }
        double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        {
            core::MutexLock lock(mutex);
            // Going idle must be atomic with the completion
            // accounting: if jobIndex were cleared in a later locked
            // section (as the worker loop once did), the watchdog
            // could doom this already-counted job in the window and
            // double-increment completed — completed > submitted
            // makes waitDrained() hang forever.
            if (cell)
                cell->jobIndex = npos;
            if (cell && cell->doomed)
                return; // abandoned attempt; already accounted
            JobReport &rep = reports[index];
            rep.seconds = secs;
            if (error) {
                errors[index] = error;
                rep.status = JobReport::Status::Failed;
                rep.error = what;
            }
            ++completed;
        }
        allDone.notify_all();
    }

    void
    watchdogLoop() EXCLUDES(mutex)
    {
        // Poll at a fraction of the budget: detection latency stays a
        // small multiple of the timeout without busy-waiting.
        auto poll = policy.jobTimeout / 8;
        if (poll < std::chrono::milliseconds(1))
            poll = std::chrono::milliseconds(1);
        core::UniqueLock lock(mutex);
        while (!watchdogStop) {
            watchdogWake.wait_for(lock.native(), poll);
            if (watchdogStop)
                return;
            auto now = std::chrono::steady_clock::now();
            for (std::size_t w = 0; w < workers.size(); ++w) {
                WorkerCell &cell = *workers[w];
                if (cell.doomed || cell.jobIndex == npos)
                    continue;
                if (now - cell.jobStart < policy.jobTimeout)
                    continue;
                doomWorkerLocked(cell, now);
            }
        }
    }

    /** Declare @p cell's job timed out; replace the worker. The
     *  stuck thread is detached — it cannot be interrupted, only
     *  abandoned — and exits on its own if the job ever returns. */
    void
    doomWorkerLocked(WorkerCell &cell,
                     std::chrono::steady_clock::time_point now)
        REQUIRES(mutex)
    {
        std::size_t index = cell.jobIndex;
        double secs =
            std::chrono::duration<double>(now - cell.jobStart).count();
        std::string msg = strprintf(
            "job %zu timed out after %.3f s (budget %lld ms)", index,
            secs,
            static_cast<long long>(policy.jobTimeout.count()));
        JobReport &rep = reports[index];
        rep.status = JobReport::Status::TimedOut;
        rep.error = msg;
        rep.seconds = secs;
        errors[index] =
            std::make_exception_ptr(std::runtime_error(msg));
        ++completed;
        cell.doomed = true;
        cell.thread.detach();
        spawnWorkerLocked();
        allDone.notify_all();
    }

    void
    waitDrained() EXCLUDES(mutex)
    {
        core::UniqueLock lock(mutex);
        while (completed != submitted)
            allDone.wait(lock.native());
    }

    void
    stop() EXCLUDES(mutex)
    {
        waitDrained();
        std::vector<std::shared_ptr<WorkerCell>> to_join;
        {
            core::MutexLock lock(mutex);
            shutdown = true;
            watchdogStop = true;
            // Join outside the lock: a worker still parked on
            // workReady needs the mutex to wake, and the watchdog
            // (pre-stop) could grow `workers` mid-iteration.
            to_join = workers;
        }
        workReady.notify_all();
        watchdogWake.notify_all();
        // Joinable = never doomed (doomed threads were detached).
        for (auto &cell : to_join)
            if (cell->thread.joinable())
                cell->thread.join();
        if (watchdog.joinable())
            watchdog.join();
    }
};

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : ExperimentRunner(jobs, RunPolicy{})
{
}

ExperimentRunner::ExperimentRunner(unsigned jobs,
                                   const RunPolicy &policy)
    : impl_(std::make_shared<Impl>())
{
    impl_->jobs = resolveJobs(jobs);
    impl_->policy = policy;
    impl_->start();
}

ExperimentRunner::~ExperimentRunner()
{
    impl_->stop();
}

unsigned
ExperimentRunner::jobs() const
{
    return impl_->jobs;
}

std::size_t
ExperimentRunner::submit(std::function<void()> job)
{
    Impl &s = *impl_;
    std::size_t index;
    {
        core::MutexLock lock(s.mutex);
        index = s.submitted++;
        s.errors.emplace_back();
        s.reports.emplace_back();
        s.reports.back().index = index;
    }
    if (s.jobs <= 1) {
        // Serial fallback: run inline, deterministically, right now.
        s.runJob(job, index, nullptr);
        return index;
    }
    {
        core::MutexLock lock(s.mutex);
        s.queue.emplace_back(std::move(job), index);
    }
    s.workReady.notify_one();
    return index;
}

void
ExperimentRunner::waitAll()
{
    impl_->waitDrained();
}

std::vector<JobReport>
ExperimentRunner::reports() const
{
    core::MutexLock lock(impl_->mutex);
    return impl_->reports;
}

void
ExperimentRunner::wait()
{
    impl_->waitDrained();
    // A doomed straggler can still reach its accounting section
    // after the drain observes completed == submitted, so `errors`
    // is only stable under the lock. Extract the earliest failure
    // there and rethrow outside it.
    std::exception_ptr first;
    {
        core::MutexLock lock(impl_->mutex);
        for (std::exception_ptr &error : impl_->errors) {
            if (error) {
                first = error;
                error = nullptr;
                break;
            }
        }
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace ringsim::runner
