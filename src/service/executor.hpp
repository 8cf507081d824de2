/**
 * @file
 * The executor seam of ServiceCore.
 *
 * ServiceCore owns a job's whole lifecycle — admission, fairness,
 * single-flight coalescing, memoization, deadlines, cancel, the
 * watchdog, poll retention and the degrade path. What it does *not*
 * own is how an admitted job's answer is produced: that is an
 * Executor. ringsim_serve runs jobs in-process (LocalExecutor);
 * ringsim_fleetd forwards them to worker daemons
 * (fleet::RemoteExecutor). Both daemons are therefore one lifecycle:
 * the JobTable (job_table.hpp) that the lifecycle checker
 * (lifecycle_check.hpp) explores.
 */

#ifndef RINGSIM_SERVICE_EXECUTOR_HPP
#define RINGSIM_SERVICE_EXECUTOR_HPP

#include <string>

#include "service/job.hpp"
#include "util/json.hpp"

namespace ringsim::service {

/** What one Executor::execute() call produced. */
struct Execution
{
    /**
     * False when no executor could answer at all (every worker dead
     * or shedding). ServiceCore then answers exactly as it answers an
     * admission shed: a model-tier estimate, or a retry_after_ms hint.
     */
    bool answered = true;
    std::string result;    //!< dumped result object (answered only)
    bool degraded = false; //!< a model-tier estimate: never cached
    std::string why;       //!< why nobody answered (!answered only)
};

class Executor
{
  public:
    Executor() = default;
    virtual ~Executor() = default;
    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    /**
     * Produce the answer to one admitted job, on the calling pool
     * thread. @p job is the client's own job object, which a remote
     * executor forwards verbatim. Throws std::runtime_error when the
     * job itself fails.
     */
    virtual Execution execute(const JobSpec &spec,
                              const util::JsonValue &job) = 0;

    /**
     * Add this executor's sections to a statsz response. Called
     * without the service lock held, so it may do I/O.
     */
    virtual void addStatsz(util::JsonValue *statsz) { (void)statsz; }
};

/** Runs jobs in-process: the executor behind ringsim_serve. */
class LocalExecutor : public Executor
{
  public:
    /** @p sweep_jobs: fan-out inside one sweep job; 0 = auto. */
    explicit LocalExecutor(unsigned sweep_jobs) : sweepJobs_(sweep_jobs)
    {
    }

    Execution execute(const JobSpec &spec,
                      const util::JsonValue &job) override
    {
        (void)job;
        Execution out;
        out.result = executeJob(spec, sweepJobs_).dump();
        return out;
    }

  private:
    unsigned sweepJobs_;
};

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_EXECUTOR_HPP
