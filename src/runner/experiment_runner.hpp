/**
 * @file
 * Parallel experiment runner.
 *
 * The paper's hybrid methodology is embarrassingly parallel: each
 * figure or table sweeps dozens of independent (workload, protocol,
 * cycle-time) points, and every point is a self-contained job — it
 * owns its own sim::Kernel (or analytic-model evaluation), takes its
 * RNG seed deterministically from its inputs, and writes into a
 * result slot indexed by submission order. Because jobs share no
 * mutable state and results are consumed in submission order, a
 * parallel run is bit-identical to a serial one; only the wall clock
 * differs.
 *
 * Thread count resolution: an explicit count wins; 0 means "auto",
 * which reads the RINGSIM_JOBS environment variable and falls back to
 * the hardware concurrency. A count of 1 is a true serial fallback —
 * jobs execute inline on the caller's thread, no worker threads are
 * created.
 *
 * The pool is deliberately plain: no per-job timeout and no retry.
 * Jobs are seeded, so a retry would fail the same way, and the fault
 * subsystem ends every faulted transaction in simulated time (DESIGN
 * §10). A sweep that wants a failed point to mark its own row instead
 * of aborting catches the exception inside its task.
 */

#ifndef RINGSIM_RUNNER_EXPERIMENT_RUNNER_HPP
#define RINGSIM_RUNNER_EXPERIMENT_RUNNER_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace ringsim::runner {

/**
 * Threads used when a caller passes jobs = 0: $RINGSIM_JOBS if set to
 * a positive integer, otherwise std::thread::hardware_concurrency()
 * (itself falling back to 1 if unknown).
 */
unsigned defaultJobs();

/** Resolve a requested job count: 0 → defaultJobs(), else unchanged. */
unsigned resolveJobs(unsigned requested);

/**
 * Derive a per-job RNG seed from a master seed and a job key
 * (splitmix64 mixing), so every job's stream is independent of, but
 * fully determined by, the master seed — regardless of which worker
 * thread runs the job or in what order.
 */
std::uint64_t jobSeed(std::uint64_t master_seed, std::uint64_t job_key);

/**
 * Watchdog budget resolution: $RINGSIM_WATCHDOG_MS if set (zero
 * disables the watchdog), otherwise @p fallback_ms. Lets operators
 * widen or disable the service's per-job watchdog on loaded machines
 * where a healthy sweep point can exceed the default budget.
 */
std::chrono::milliseconds
watchdogBudget(std::chrono::milliseconds fallback_ms);

/**
 * A fixed-size thread pool that runs void() jobs and remembers the
 * first exception in submission order.
 */
class ExperimentRunner
{
  public:
    /** @param jobs worker threads; 0 → defaultJobs(), 1 → inline. */
    explicit ExperimentRunner(unsigned jobs = 0);

    /** Waits for all submitted jobs, then joins the workers. */
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    /** Resolved worker count (>= 1). */
    unsigned jobs() const;

    /**
     * Enqueue a job; returns its submission index. With jobs() == 1
     * the job runs inline, on the submitting thread, before submit()
     * returns.
     */
    std::size_t submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished. If any job threw,
     * rethrows the exception of the earliest-submitted failing job
     * (fail-fast semantics) and forgets it.
     */
    void wait();

    /**
     * Block until every submitted job has finished. Never throws on
     * job failure; a later wait() still rethrows the earliest one.
     */
    void waitAll();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run every task (possibly in parallel), collecting results in
 * submission order. R must be default-constructible. This is the
 * deterministic fan-out primitive the benches are built on:
 *
 *   std::vector<std::function<core::RunResult()>> tasks = ...;
 *   auto results = runner::runAll(std::move(tasks), opt.jobs);
 */
template <typename R>
std::vector<R>
runAll(std::vector<std::function<R()>> tasks, unsigned jobs = 0)
{
    std::vector<R> results(tasks.size());
    ExperimentRunner pool(jobs);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        pool.submit([&results, &tasks, i]() {
            results[i] = tasks[i]();
        });
    }
    pool.wait();
    return results;
}

} // namespace ringsim::runner

#endif // RINGSIM_RUNNER_EXPERIMENT_RUNNER_HPP
