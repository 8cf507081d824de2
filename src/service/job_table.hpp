/**
 * @file
 * The service job lifecycle as one copyable value.
 *
 * JobTable holds every piece of job state a ServiceCore keeps under
 * its mutex: the records, the per-client FIFOs and their round-robin
 * cursor, the admission count (`active`), the single-flight index,
 * the running ids, the retention order, the next id and the statsz
 * counters. Each locked section of ServiceCore is one method here
 * (admit, dispatch, complete, cancel, clientGone, expire/reap, the
 * degrade claim and attach). The table takes no lock, reads no clock
 * (time is an argument), starts no thread and does no I/O, so it is a
 * plain value: ServiceCore runs one under its mutex, and the
 * lifecycle checker (lifecycle_check.hpp) copies and steps it through
 * every interleaving of the same transitions.
 *
 * TableMutation is a test-only fault seed: each value breaks one
 * transition at its real site, so the checker's self-tests can prove
 * the break is caught. ServiceCore always passes TableMutation::None.
 */

#ifndef RINGSIM_SERVICE_JOB_TABLE_HPP
#define RINGSIM_SERVICE_JOB_TABLE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/config.hpp"
#include "service/job.hpp"
#include "util/json.hpp"

namespace ringsim::service {

/** Lifecycle of one admitted job. */
enum class JobState {
    Queued,
    Running,
    Done,
    Failed,
    TimedOut,
    Cancelled,
};

/** Printable state name ("queued", ...). */
const char *jobStateName(JobState s);

/** Queued or running: admitted and not yet answered. */
inline bool
inFlight(JobState s)
{
    return s == JobState::Queued || s == JobState::Running;
}

/** Deliberately broken table transitions, for checker self-tests. */
enum class TableMutation : unsigned {
    None = 0,
    DropDrainRelease,    //!< a task draining a dead job keeps its slot
    DropLateRelease,     //!< a late completion keeps its slot
    DoubleAnswerLate,    //!< a late completion re-answers as done
    ShedLeaksSlot,       //!< a shed submit takes a slot
    SkipCancelAnswer,    //!< a cancel sets the state but never finishes
    StaleInflightAttach, //!< finish keeps the single-flight entry
    IgnoreInflight,      //!< admission skips the single-flight lookup
};

/** Printable mutation name (CLI spelling). */
const char *tableMutationName(TableMutation m);

/** Parse a CLI mutation name; false when unknown. */
[[nodiscard]] bool tableMutationFromName(const std::string &name,
                                         TableMutation *out);

/** Every mutation, for CLI listings and exhaustive tests. */
constexpr std::array<TableMutation, 7> allTableMutations = {
    TableMutation::DropDrainRelease,    TableMutation::DropLateRelease,
    TableMutation::DoubleAnswerLate,    TableMutation::ShedLeaksSlot,
    TableMutation::SkipCancelAnswer,    TableMutation::StaleInflightAttach,
    TableMutation::IgnoreInflight,
};

using TimePoint = std::chrono::steady_clock::time_point;

/** One admitted job. */
struct JobRecord
{
    std::uint64_t id = 0;
    std::string client;
    JobSpec spec;
    util::JsonValue job; //!< client job object (moved out at dispatch)
    std::string key;     //!< cache key ("" when not cacheable)
    JobState state = JobState::Queued;
    std::string result; //!< dumped result object (Done/degraded)
    std::string error;  //!< failure text (Failed/TimedOut/...)
    bool degradable = false;     //!< may answer from the model tier
    bool degraded = false;       //!< result is a model estimate
    bool degradeStarted = false; //!< escalation claimed (once)
    bool unavailable = false; //!< no executor answered: shed-style
    TimePoint enqueued;
    TimePoint started;
};

/** The statsz counters the table keeps. */
struct JobCounters
{
    std::uint64_t submitted = 0, admitted = 0, shed = 0, completed = 0,
                  failed = 0, timedOut = 0, lateCompletions = 0,
                  cacheAnswers = 0, badRequests = 0;
    std::uint64_t cancelled = 0;       //!< explicit + disconnect
    std::uint64_t deadlineExpired = 0; //!< queued or running
    std::uint64_t degraded = 0;        //!< model-tier answers served
    std::uint64_t coalesced = 0; //!< submits attached to a leader
};

class JobTable
{
  public:
    /** Reads queueDepth, retainDone (>= 1) and watchdog. */
    explicit JobTable(const ServiceConfig &cfg,
                      TableMutation mutation = TableMutation::None)
        : queueDepth_(cfg.queueDepth), retainDone_(cfg.retainDone),
          watchdog_(cfg.watchdog), mutation_(mutation)
    {
    }

    /** What admit() decided. */
    struct Admission
    {
        enum class Outcome { Admitted, Coalesced, Shed };
        Outcome outcome = Outcome::Admitted;
        /** The id to answer with; 0 for a shed nobody can poll. */
        std::uint64_t id = 0;
        JobState leaderState = JobState::Queued; //!< Coalesced only
        std::size_t busy = 0; //!< Shed only: slots busy at the bound
    };

    /**
     * A submit that missed the cache: coalesce onto an identical
     * job in flight, shed at the admission bound (a @p degradable
     * shed still gets an id), or admit into @p client's FIFO.
     */
    Admission admit(const std::string &client, const JobSpec &spec,
                    const util::JsonValue &job, const std::string &key,
                    bool degradable, TimePoint now);

    /** A submit answered from the cache: counts it, returns its id. */
    std::uint64_t cacheAnswer()
    {
        ++counters_.submitted;
        ++counters_.cacheAnswers;
        return next_id_++;
    }

    /** A request that failed to parse. */
    void badRequest() { ++counters_.badRequests; }

    /** A shed submit answered from the model tier. */
    void degradedAnswer() { ++counters_.degraded; }

    /** The job a pool task starts. */
    struct Dispatch
    {
        std::uint64_t id = 0;
        JobSpec spec;
        util::JsonValue job;
        std::string key;
    };

    /**
     * A pool task takes the next id round-robin over clients. A job
     * no longer queued or retained is drained: the task releases the
     * slot it carries and gets nullopt.
     */
    std::optional<Dispatch> dispatch(TimePoint now);

    /** How one execution ended. */
    struct Outcome
    {
        bool ok = true;           //!< text is the result, else error
        std::string text;
        bool degraded = false;    //!< ok: a model-tier estimate
        bool unavailable = false; //!< !ok: no executor answered
    };

    /**
     * Job @p id's thread finished: its latency in ms, or nullopt for
     * a late completion (already answered or dropped), counted and
     * discarded.
     */
    std::optional<double> complete(std::uint64_t id, Outcome outcome,
                                   TimePoint now);

    /** Cancel a queued or running job; the record to answer from,
     *  or nullptr for an unknown or dropped id. */
    const JobRecord *cancel(std::uint64_t id);

    /** @p client disconnected: cancel its still-queued jobs. */
    void clientGone(const std::string &client);

    /** Why a job expires. */
    enum class Expiry { Watchdog, Deadline };

    /** Expire @p id: a running job times out, a queued one is
     *  cancelled before dispatch (a deadline only). */
    bool expire(std::uint64_t id, Expiry why);

    /** Expire every job overdue at @p now; true if any. */
    bool reap(TimePoint now);

    /** Claim a timed-out degradable job's one escalation: the spec
     *  to solve off-lock, or nullptr. */
    const JobSpec *claimDegrade(std::uint64_t id);

    /** Attach a claimed escalation's @p estimate (nullopt: the
     *  solve failed); the record, or nullptr if dropped meanwhile. */
    const JobRecord *attachDegraded(std::uint64_t id,
                                    std::optional<std::string> estimate);

    /** The retained record of @p id, or nullptr. */
    const JobRecord *find(std::uint64_t id) const;

    /** Jobs holding an admission slot: queued + running. */
    std::size_t active() const { return active_; }

    /** Threads executing a job, abandoned ones included. */
    std::size_t running() const { return running_.size(); }

    const JobCounters &counters() const { return counters_; }

    /** The id in flight for cache key @p key, or 0. */
    std::uint64_t flightOf(const std::string &key) const;

    /** The id the next submit gets. */
    std::uint64_t nextId() const { return next_id_; }

    /** Append the lifecycle state to @p out (the checker's visited
     *  key): everything but the counters and the flight index. */
    void encode(std::string *out) const;

  private:
    std::uint64_t pickNext();

    /** Retire @p rec into the done set, then trim. */
    void finish(JobRecord &rec, JobState state,
                std::string result_or_error);

    std::size_t queueDepth_;
    std::size_t retainDone_;
    std::chrono::milliseconds watchdog_;
    TableMutation mutation_;

    std::uint64_t next_id_ = 1;

    /** Keyed lookup only (never iterated — see the lint rule). */
    std::unordered_map<std::uint64_t, JobRecord> jobs_;

    /** Single-flight index: cache key -> the one admitted job
     *  computing it. Keyed lookup only. */
    std::unordered_map<std::string, std::uint64_t> inflight_;

    /** Ids whose thread runs, in start order. */
    std::vector<std::uint64_t> running_;

    /** Retained finished ids, oldest first. */
    std::deque<std::uint64_t> done_order_;

    /** Per-client pending FIFOs, visited round-robin. */
    struct ClientQueue
    {
        std::string name;
        std::deque<std::uint64_t> pending;
    };
    std::vector<ClientQueue> queues_;
    std::size_t rr_next_ = 0;

    /** queued + running (admission bound). */
    std::size_t active_ = 0;

    JobCounters counters_;
};

} // namespace ringsim::service

#endif // RINGSIM_SERVICE_JOB_TABLE_HPP
