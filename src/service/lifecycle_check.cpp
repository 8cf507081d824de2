#include "lifecycle_check.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <unordered_map>

#include "util/logging.hpp"

namespace ringsim::service {

namespace {

constexpr unsigned kMaxJobs = 3;
constexpr unsigned kMaxClients = 2;
constexpr std::uint64_t kStateCap = 2'000'000;
constexpr std::size_t kFindingCap = 4;

/** One explored state: the table, and what lives outside it. */
struct State
{
    JobTable table;
    /** The id each job's submit answered with (0: none yet). */
    std::array<std::uint64_t, kMaxJobs> ids{};
    unsigned submitted = 0; //!< bitmask over jobs
    unsigned gone = 0;      //!< bitmask over clients
    unsigned tasks = 0;     //!< pool tasks not yet run
    /** Ids whose thread executes, abandoned ones included (sorted). */
    std::vector<std::uint64_t> executing;
};

/** BFS bookkeeping: how a state was first reached. */
struct Prev
{
    std::size_t parent = 0;
    std::string event; //!< empty for the initial state
};

struct Explorer
{
    const LifecycleConfig &cfg;
    LifecycleReport &report;
    const unsigned nJobs;
    const unsigned nClients;
    const std::array<std::string, 2> keys{"k0", "k1"};
    const JobSpec spec;
    /** Keyed lookup only (never iterated — see the lint rule). */
    std::unordered_map<std::string, std::size_t> index;
    std::vector<Prev> prev;
    std::deque<std::pair<State, std::size_t>> frontier;

    Explorer(const LifecycleConfig &c, LifecycleReport &r)
        : cfg(c), report(r), nJobs(std::min(c.jobs, kMaxJobs)),
          nClients(std::min(c.clients, kMaxClients))
    {
    }

    /** The first job whose submit answered with @p id. */
    unsigned
    jobOf(const State &s, std::uint64_t id) const
    {
        for (unsigned j = 0; j < nJobs; ++j)
            if (s.ids[j] == id)
                return j;
        return kMaxJobs;
    }

    std::string
    encode(const State &s) const
    {
        std::string k;
        s.table.encode(&k);
        k.push_back('|');
        for (const std::string &key : keys)
            k += std::to_string(s.table.flightOf(key)) + ',';
        for (std::uint64_t id : s.ids)
            k += std::to_string(id) + ',';
        k += strprintf("%u,%u,%u|", s.submitted, s.gone, s.tasks);
        for (std::uint64_t id : s.executing)
            k += std::to_string(id) + ',';
        return k;
    }

    void
    fail(std::size_t at, const std::string &event, LifecycleDefect kind,
         std::string detail)
    {
        ++report.violationsTotal;
        if (report.findings.size() >= kFindingCap)
            return;
        LifecycleFinding f;
        f.kind = kind;
        f.detail = std::move(detail);
        // Walk the parent chain back to the initial state; the trace
        // reads forward once reversed.
        std::vector<std::string> steps;
        if (!event.empty())
            steps.push_back(event);
        for (; !prev[at].event.empty(); at = prev[at].parent)
            steps.push_back(prev[at].event);
        for (std::size_t i = steps.size(); i-- > 0;)
            f.trace.push_back(strprintf(
                "%zu. %s", steps.size() - i, steps[i].c_str()));
        for (const LifecycleFinding &seen : report.findings)
            if (seen.detail == f.detail && seen.trace == f.trace)
                return;
        report.findings.push_back(std::move(f));
    }

    /** Invariants of a newly reached state @p at. */
    void
    checkState(const State &s, std::size_t at)
    {
        const JobTable &t = s.table;
        const std::size_t holders = s.tasks + s.executing.size();
        if (t.active() > cfg.depth)
            fail(at, "", LifecycleDefect::SlotOverflow,
                 strprintf("active = %zu exceeds queue depth %u",
                           t.active(), cfg.depth));
        if (t.active() != holders)
            fail(at, "", LifecycleDefect::SlotDrift,
                 strprintf("active = %zu but %zu pool tasks and "
                           "threads hold a slot",
                           t.active(), holders));
        std::array<unsigned, 2> live{};
        for (std::uint64_t id = 1; id < t.nextId(); ++id) {
            const JobRecord *rec = t.find(id);
            if (rec && inFlight(rec->state))
                ++live[rec->key == keys[0] ? 0 : 1];
        }
        for (unsigned k = 0; k < 2; ++k)
            if (live[k] > 1)
                fail(at, "", LifecycleDefect::DuplicateFlight,
                     strprintf("%u records of spec %s queued or "
                               "running at once",
                               live[k], keys[k].c_str()));
        // Quiescent: every job submitted, no task or thread left.
        if (s.submitted != (1u << nJobs) - 1 || holders != 0)
            return;
        ++report.quiescentStates;
        if (t.active() != 0)
            fail(at, "", LifecycleDefect::SlotLeak,
                 strprintf("quiescent with active = %zu (slots never "
                           "released)",
                           t.active()));
        for (std::uint64_t id = 1; id < t.nextId(); ++id) {
            const JobRecord *rec = t.find(id);
            if (rec && inFlight(rec->state))
                fail(at, "", LifecycleDefect::StuckJob,
                     strprintf("quiescent with job %u still %s",
                               jobOf(s, id), jobStateName(rec->state)));
        }
        for (const std::string &key : keys)
            if (std::uint64_t id = t.flightOf(key))
                fail(at, "", LifecycleDefect::FlightLeak,
                     strprintf("quiescent with spec %s still in flight "
                               "as id %llu",
                               key.c_str(),
                               static_cast<unsigned long long>(id)));
        const JobCounters &c = t.counters();
        std::uint64_t answered =
            c.completed + c.failed + c.timedOut + c.cancelled;
        if (c.admitted != answered)
            fail(at, "", LifecycleDefect::LostJob,
                 strprintf("admitted %llu, but completed + failed + "
                           "timed_out + cancelled = %llu",
                           static_cast<unsigned long long>(c.admitted),
                           static_cast<unsigned long long>(answered)));
    }

    /**
     * Record the transition @p s (state @p at) -> @p n by @p event:
     * check that no terminal record changed state, then enqueue @p n
     * if it is new.
     */
    void
    step(const State &s, std::size_t at, State n, std::string event)
    {
        ++report.transitions;
        for (std::uint64_t id = 1; id < s.table.nextId(); ++id) {
            const JobRecord *was = s.table.find(id);
            const JobRecord *now = n.table.find(id);
            if (was && now && !inFlight(was->state) &&
                now->state != was->state)
                fail(at, event, LifecycleDefect::AnsweredTwice,
                     strprintf("job %u answered %s, then %s",
                               jobOf(s, id), jobStateName(was->state),
                               jobStateName(now->state)));
        }
        std::string k = encode(n);
        if (index.find(k) != index.end())
            return;
        std::size_t next = prev.size();
        index.emplace(std::move(k), next);
        prev.push_back(Prev{at, std::move(event)});
        checkState(n, next);
        frontier.emplace_back(std::move(n), next);
    }

    void
    submit(const State &s, std::size_t at, unsigned j)
    {
        State n = s;
        const unsigned c = j % nClients;
        JobTable::Admission a =
            n.table.admit(strprintf("c%u", c), spec, util::JsonValue(),
                          keys[j % 2], true, {});
        n.submitted |= 1u << j;
        n.ids[j] = a.id;
        std::string event;
        using Outcome = JobTable::Admission::Outcome;
        if (a.outcome == Outcome::Coalesced) {
            event = strprintf("submit job %u (client c%u) -> "
                              "coalesced onto job %u (%s)",
                              j, c, jobOf(s, a.id),
                              jobStateName(a.leaderState));
        } else if (a.outcome == Outcome::Shed) {
            event = strprintf("submit job %u (client c%u) -> shed "
                              "(active %zu/%u)",
                              j, c, a.busy, cfg.depth);
        } else {
            ++n.tasks;
            event = strprintf("submit job %u (client c%u) -> "
                              "admitted, queued (active %zu/%u)",
                              j, c, n.table.active(), cfg.depth);
        }
        step(s, at, std::move(n), std::move(event));
    }

    void
    dispatch(const State &s, std::size_t at)
    {
        State n = s;
        --n.tasks;
        std::optional<JobTable::Dispatch> d = n.table.dispatch({});
        std::string event;
        if (d) {
            n.executing.push_back(d->id);
            std::sort(n.executing.begin(), n.executing.end());
            event = strprintf("dispatch -> job %u running",
                              jobOf(s, d->id));
        } else {
            event = strprintf("dispatch -> task drains a job no "
                              "longer queued (active %zu/%u)",
                              n.table.active(), cfg.depth);
        }
        step(s, at, std::move(n), std::move(event));
    }

    void
    complete(const State &s, std::size_t at, std::uint64_t id)
    {
        static const char *const kinds[] = {
            "done", "failed", "failed, executor unavailable"};
        for (unsigned kind = 0; kind < 3; ++kind) {
            State n = s;
            n.executing.erase(std::find(n.executing.begin(),
                                        n.executing.end(), id));
            JobTable::Outcome out;
            out.ok = kind == 0;
            out.unavailable = kind == 2;
            out.text = out.ok ? "{}" : "error";
            bool answered = n.table.complete(id, out, {}).has_value();
            const JobRecord *was = s.table.find(id);
            std::string late =
                was ? strprintf("late completion (job was %s)",
                                jobStateName(was->state))
                    : std::string("late completion (record dropped)");
            step(s, at, std::move(n),
                 strprintf("job %u completes -> %s", jobOf(s, id),
                           answered ? kinds[kind] : late.c_str()));
        }
    }

    void
    cancel(const State &s, std::size_t at, std::uint64_t id)
    {
        State n = s;
        const char *was = jobStateName(s.table.find(id)->state);
        const JobRecord *rec = n.table.cancel(id);
        std::string event = strprintf(
            "cancel job %u (%s) -> %s", jobOf(s, id), was,
            rec ? jobStateName(rec->state) : "record gone");
        if (!rec)
            fail(at, event, LifecycleDefect::AnsweredFromDropped,
                 strprintf("cancel of job %u answered from a record "
                           "its own finish dropped",
                           jobOf(s, id)));
        step(s, at, std::move(n), std::move(event));
    }

    void
    expire(const State &s, std::size_t at, std::uint64_t id)
    {
        State n = s;
        bool running = s.table.find(id)->state == JobState::Running;
        (void)n.table.expire(id, running ? JobTable::Expiry::Watchdog
                                         : JobTable::Expiry::Deadline);
        step(s, at, std::move(n),
             running ? strprintf("watchdog fires on job %u -> "
                                 "timed_out, thread abandoned",
                                 jobOf(s, id))
                     : strprintf("deadline expires on queued job %u "
                                 "-> cancelled before dispatch",
                                 jobOf(s, id)));
    }

    void
    disconnect(const State &s, std::size_t at, unsigned c)
    {
        State n = s;
        n.gone |= 1u << c;
        n.table.clientGone(strprintf("c%u", c));
        step(s, at, std::move(n),
             strprintf("client c%u disconnects -> its queued jobs "
                       "cancelled",
                       c));
    }

    void
    degrade(const State &s, std::size_t at, std::uint64_t id)
    {
        State n = s;
        if (!n.table.claimDegrade(id))
            return;
        (void)n.table.attachDegraded(id, std::string("{}"));
        step(s, at, std::move(n),
             strprintf("poll job %u -> degraded escalation attaches an "
                       "estimate",
                       jobOf(s, id)));
    }

    void
    expand(const State &s, std::size_t at)
    {
        for (unsigned j = 0; j < nJobs; ++j)
            if (!(s.submitted & (1u << j)))
                submit(s, at, j);
        if (s.tasks > 0 && s.executing.size() < cfg.workers)
            dispatch(s, at);
        for (std::uint64_t id : s.executing)
            complete(s, at, id);
        for (std::uint64_t id = 1; id < s.table.nextId(); ++id) {
            const JobRecord *rec = s.table.find(id);
            if (rec && inFlight(rec->state)) {
                cancel(s, at, id);
                expire(s, at, id);
            } else if (rec && rec->state == JobState::TimedOut) {
                degrade(s, at, id);
            }
        }
        for (unsigned c = 0; c < nClients; ++c)
            if (!(s.gone & (1u << c)))
                disconnect(s, at, c);
    }

    void
    run()
    {
        ServiceConfig sc;
        sc.queueDepth = cfg.depth;
        sc.retainDone = cfg.retainDone;
        sc.watchdog = std::chrono::milliseconds(1000);
        State init{JobTable(sc, cfg.mutation), {}, 0, 0, 0, {}};
        index.emplace(encode(init), 0);
        prev.push_back(Prev{});
        checkState(init, 0);
        frontier.emplace_back(std::move(init), 0);
        while (!frontier.empty()) {
            if (prev.size() > kStateCap) {
                report.truncated = true;
                break;
            }
            auto [s, at] = std::move(frontier.front());
            frontier.pop_front();
            ++report.states;
            expand(s, at);
        }
    }
};

} // namespace

std::string
LifecycleConfig::check() const
{
    if (jobs < 1 || jobs > kMaxJobs)
        return strprintf("jobs = %u: must be 1..%u", jobs, kMaxJobs);
    if (clients < 1 || clients > kMaxClients)
        return strprintf("clients = %u: must be 1..%u", clients,
                         kMaxClients);
    if (workers < 1 || workers > 2)
        return strprintf("workers = %u: must be 1..2", workers);
    if (depth < 1 || depth > 3)
        return strprintf("depth = %u: must be 1..3", depth);
    if (retainDone < 1 || retainDone > 3)
        return strprintf("retainDone = %u: must be 1..3", retainDone);
    return "";
}

std::vector<LifecycleConfig>
lifecycleMatrix(TableMutation mutation)
{
    std::vector<LifecycleConfig> out;
    for (unsigned workers : {1u, 2u}) {
        for (unsigned depth : {1u, 2u, 3u}) {
            for (unsigned retain : {1u, 2u, 3u}) {
                LifecycleConfig c;
                c.workers = workers;
                c.depth = depth;
                c.retainDone = retain;
                c.mutation = mutation;
                out.push_back(c);
            }
        }
    }
    return out;
}

const char *
lifecycleDefectName(LifecycleDefect d)
{
    switch (d) {
      case LifecycleDefect::SlotOverflow:
        return "slot-overflow";
      case LifecycleDefect::SlotDrift:
        return "slot-drift";
      case LifecycleDefect::AnsweredTwice:
        return "answered-twice";
      case LifecycleDefect::DuplicateFlight:
        return "duplicate-flight";
      case LifecycleDefect::AnsweredFromDropped:
        return "answered-from-dropped";
      case LifecycleDefect::SlotLeak:
        return "slot-leak";
      case LifecycleDefect::StuckJob:
        return "stuck-job";
      case LifecycleDefect::FlightLeak:
        return "flight-leak";
      case LifecycleDefect::LostJob:
        return "lost-job";
    }
    return "?";
}

std::string
LifecycleReport::summary() const
{
    std::string verdict =
        truncated ? "TRUNCATED"
        : clean() ? "clean"
                  : strprintf("%llu VIOLATIONS",
                              static_cast<unsigned long long>(
                                  violationsTotal));
    return strprintf(
        "service jobs=%u clients=%u workers=%u depth=%u retain=%u "
        "mutation=%-21s %8llu states %9llu transitions %6llu "
        "quiescent  %s",
        config.jobs, config.clients, config.workers, config.depth,
        config.retainDone, tableMutationName(config.mutation),
        static_cast<unsigned long long>(states),
        static_cast<unsigned long long>(transitions),
        static_cast<unsigned long long>(quiescentStates),
        verdict.c_str());
}

LifecycleReport
checkLifecycle(const LifecycleConfig &config)
{
    LifecycleReport report;
    report.config = config;
    std::string err = config.check();
    if (!err.empty()) {
        report.violationsTotal = 1;
        report.findings.push_back(
            {LifecycleDefect::StuckJob, "bad configuration: " + err, {}});
        return report;
    }
    Explorer(config, report).run();
    return report;
}

} // namespace ringsim::service
