/**
 * @file
 * Exhaustive schedule explorer for the service job lifecycle.
 *
 * checkLifecycle() explores, breadth-first, every interleaving of a
 * small configuration (up to 3 jobs from 2 clients, 2 workers, depth
 * 3, retention 3) of the JobTable that ServiceCore runs under its
 * mutex (job_table.hpp). A state is a copy of that table plus what
 * lives outside it: the pool tasks not yet run, the threads still
 * executing, and the clients that disconnected. Each event — submit
 * (job 2 repeats job 0's spec, so coalescing is explored), dispatch,
 * completion as done, failed or executor-unavailable, cancel, a
 * watchdog or deadline expiry, disconnect, degraded escalation —
 * calls the table method its real locked section calls. The checks
 * (DESIGN.md §15.3): slot accounting, no double answer, one flight
 * per spec, no answer from a dropped record, and at quiescence
 * nothing stuck, leaked or unaccounted. The checker starts no thread
 * and reads no clock; a finding carries a numbered event trace from
 * the empty service.
 */

#ifndef RINGSIM_SERVICE_LIFECYCLE_CHECK_HPP
#define RINGSIM_SERVICE_LIFECYCLE_CHECK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "service/job_table.hpp"

namespace ringsim::service {

/** One exhaustive lifecycle check. */
struct LifecycleConfig
{
    unsigned jobs = 3;       //!< jobs submitted (1..3)
    unsigned clients = 2;    //!< submitting clients (1..2)
    unsigned workers = 1;    //!< pool worker threads (1..2)
    unsigned depth = 2;      //!< admission bound, queued+running (1..3)
    unsigned retainDone = 3; //!< finished records kept (1..3)

    TableMutation mutation = TableMutation::None;

    /** Validate ranges; returns a message naming the bad field. */
    [[nodiscard]] std::string check() const;
};

/** The default matrix: workers {1,2} x depth {1,2,3} x retain {1,2,3}. */
std::vector<LifecycleConfig> lifecycleMatrix(TableMutation mutation);

/** What the explorer can find wrong. */
enum class LifecycleDefect {
    SlotOverflow,    //!< active exceeded the admission bound
    SlotDrift,       //!< active != tasks not yet run + threads
    AnsweredTwice,   //!< a terminal record changed state
    DuplicateFlight, //!< two records of one spec queued or running
    AnsweredFromDropped, //!< an answer's record was dropped under it
    SlotLeak,        //!< quiescent with active != 0
    StuckJob,        //!< quiescent with a record queued or running
    FlightLeak,      //!< quiescent with a single-flight entry left
    LostJob,         //!< quiescent with an admitted job unaccounted
};

/** Printable defect name. */
const char *lifecycleDefectName(LifecycleDefect d);

/** One counterexample: a defect and the events that reach it. */
struct LifecycleFinding
{
    LifecycleDefect kind = LifecycleDefect::SlotLeak;
    std::string detail; //!< one-line description of the violation
    /** Numbered events from the empty service to the violation. */
    std::vector<std::string> trace;
};

/** Exploration statistics and verdict. */
struct LifecycleReport
{
    LifecycleConfig config;
    std::uint64_t states = 0, transitions = 0, quiescentStates = 0;
    /** True if the state cap was hit (never in shipped configs). */
    bool truncated = false;
    std::uint64_t violationsTotal = 0;
    /** First few findings (capped; violationsTotal has the count). */
    std::vector<LifecycleFinding> findings;

    [[nodiscard]] bool clean() const
    {
        return violationsTotal == 0 && !truncated;
    }

    /** One-line result, e.g. for the CLI table. */
    std::string summary() const;
};

/** Exhaustively explore one configuration. */
[[nodiscard]] LifecycleReport
checkLifecycle(const LifecycleConfig &config);

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_LIFECYCLE_CHECK_HPP
