#include "experiment_runner.hpp"

#include <condition_variable>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "core/thread_annotations.hpp"
#include "util/env.hpp"
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

/** Pool state shared by the runner facade and its workers. */
struct ExperimentRunner::Impl
{
    explicit Impl(unsigned n) : jobs(n) {}

    /** Drains the queue, then joins every worker started so far (so
     *  a constructor that fails mid-spawn still joins). */
    ~Impl()
    {
        waitDrained();
        {
            core::MutexLock lock(mutex);
            shutdown = true;
        }
        workReady.notify_all();
        for (std::thread &worker : workers)
            worker.join();
    }

    const unsigned jobs;

    core::Mutex mutex;
    std::condition_variable workReady;
    std::condition_variable allDone;
    std::deque<std::pair<std::function<void()>, std::size_t>> queue
        GUARDED_BY(mutex);
    std::size_t submitted GUARDED_BY(mutex) = 0;
    std::size_t completed GUARDED_BY(mutex) = 0;
    /** Earliest-submitted failure that wait() has not rethrown. */
    std::exception_ptr firstError GUARDED_BY(mutex);
    std::size_t firstErrorIndex GUARDED_BY(mutex) = 0;
    bool shutdown GUARDED_BY(mutex) = false;

    /** Started by ExperimentRunner's constructor; joined by ~Impl. */
    std::vector<std::thread> workers;

    void
    workerLoop() EXCLUDES(mutex)
    {
        for (;;) {
            std::pair<std::function<void()>, std::size_t> item;
            {
                core::UniqueLock lock(mutex);
                while (!shutdown && queue.empty())
                    workReady.wait(lock.native());
                if (queue.empty())
                    return; // shutdown with drained queue
                item = std::move(queue.front());
                queue.pop_front();
            }
            runJob(item.first, item.second);
        }
    }

    void
    runJob(std::function<void()> &job, std::size_t index) EXCLUDES(mutex)
    {
        std::exception_ptr error;
        try {
            job();
        } catch (...) {
            error = std::current_exception();
        }
        {
            // Move, not copy: after completed is published this thread
            // keeps no reference, so the exception dies on the thread
            // that rethrew it. A copy released here later is safe by
            // the refcount, but TSan cannot see libstdc++'s atomics
            // and reports it as a race.
            core::MutexLock lock(mutex);
            if (error && (!firstError || index < firstErrorIndex)) {
                firstError = std::move(error);
                firstErrorIndex = index;
            }
            ++completed;
        }
        allDone.notify_all();
    }

    void
    waitDrained() EXCLUDES(mutex)
    {
        core::UniqueLock lock(mutex);
        while (completed != submitted)
            allDone.wait(lock.native());
    }
};

ExperimentRunner::ExperimentRunner(unsigned jobs)
    : impl_(std::make_unique<Impl>(resolveJobs(jobs)))
{
    if (impl_->jobs <= 1)
        return;
    Impl *s = impl_.get();
    for (unsigned i = 0; i < s->jobs; ++i)
        s->workers.emplace_back([s]() { s->workerLoop(); });
}

ExperimentRunner::~ExperimentRunner() = default;

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
        if (s.jobs > 1)
            s.queue.emplace_back(std::move(job), index);
    }
    if (s.jobs > 1)
        s.workReady.notify_one();
    else
        s.runJob(job, index); // serial fallback: inline, right now
    return index;
}

void
ExperimentRunner::waitAll()
{
    impl_->waitDrained();
}

void
ExperimentRunner::wait()
{
    impl_->waitDrained();
    std::exception_ptr first;
    {
        core::MutexLock lock(impl_->mutex);
        std::swap(first, impl_->firstError);
    }
    if (first)
        std::rethrow_exception(first);
}

} // namespace ringsim::runner
