#include "service_model.hpp"

#include <array>
#include <cstring>
#include <deque>
#include <unordered_map>

#include "util/logging.hpp"

namespace ringsim::verify {

namespace {

constexpr unsigned kMaxJobs = 3;
constexpr unsigned kMaxClients = 2;
/** Duplicate submissions that may attach to one leader job. */
constexpr unsigned kMaxWaiters = 2;
constexpr std::uint64_t kStateCap = 2'000'000;
constexpr std::size_t kFindingCap = 4;

/** Lifecycle stage of one modeled job. */
enum class Stage : std::uint8_t {
    NotSubmitted,
    Shed,      //!< rejected at admission (answered immediately)
    Queued,    //!< admitted, waiting in its client FIFO
    Running,   //!< a pool thread is executing it
    Done,      //!< completed and answered
    TimedOut,  //!< abandoned by the watchdog (thread may live on)
    Cancelled, //!< cancel/deadline/disconnect (thread may live on)
};

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::NotSubmitted:
        return "not-submitted";
      case Stage::Shed:
        return "shed";
      case Stage::Queued:
        return "queued";
      case Stage::Running:
        return "running";
      case Stage::Done:
        return "done";
      case Stage::TimedOut:
        return "timed_out";
      case Stage::Cancelled:
        return "cancelled";
    }
    return "?";
}

/** One job's model state (mirrors ServiceCore's JobRecord plus the
 *  implicit facts the code keeps in counters and thread liveness). */
struct JobCell
{
    Stage stage = Stage::NotSubmitted;
    bool threadLive = false;   //!< a pool thread is executing it
    bool slotHeld = false;     //!< holds one admission slot
    bool cancelUsed = false;   //!< explicit cancel already explored
    bool deadlineUsed = false; //!< queued-deadline expiry explored
    bool degraded = false;     //!< degraded escalation attached
    std::uint8_t answers = 0;  //!< terminal answers rendered
    /** Single-flight state: duplicate submissions of this job's spec
     *  that coalesced onto it instead of executing. Waiters consume
     *  no admission slot; the leader's terminal answer must serve
     *  each exactly once. */
    std::uint8_t waiters = 0;       //!< currently blocked waiters
    std::uint8_t attached = 0;      //!< waiters ever attached
    std::uint8_t waiterAnswers = 0; //!< answers rendered to waiters
};

/** One global state of the modeled service. */
struct State
{
    std::array<JobCell, kMaxJobs> jobs{};
    /** Per-client pending FIFOs (job indices; cancelled ids stay). */
    std::array<std::vector<std::uint8_t>, kMaxClients> fifo;
    std::uint8_t rrNext = 0; //!< round-robin resume point
    std::uint8_t active = 0; //!< the code's queued+running counter
    std::array<bool, kMaxClients> disconnected{};

    std::string
    key() const
    {
        // Flat fixed buffer: 4 chars per job, '|', up to
        // (kMaxJobs + 1) per FIFO, rrNext, active, one per client.
        char buf[4 * kMaxJobs + 1 + (kMaxJobs + 1) * kMaxClients +
                 2 + kMaxClients];
        std::size_t i = 0;
        for (const JobCell &j : jobs) {
            buf[i++] = static_cast<char>(
                '0' + static_cast<unsigned>(j.stage));
            unsigned flags = (j.threadLive ? 1u : 0) |
                             (j.slotHeld ? 2u : 0) |
                             (j.cancelUsed ? 4u : 0) |
                             (j.deadlineUsed ? 8u : 0) |
                             (j.degraded ? 16u : 0);
            buf[i++] = static_cast<char>('a' + flags);
            buf[i++] = static_cast<char>('0' + j.answers);
            // waiters/attached/waiterAnswers packed base-5: each is
            // bounded by 2*kMaxWaiters = 4.
            unsigned flight = j.waiters * 25u + j.attached * 5u +
                              j.waiterAnswers;
            buf[i++] = static_cast<char>('!' + flight);
        }
        buf[i++] = '|';
        for (const auto &q : fifo) {
            for (std::uint8_t id : q)
                if (i < sizeof(buf))
                    buf[i++] = static_cast<char>('0' + id);
            if (i < sizeof(buf))
                buf[i++] = ',';
        }
        buf[i++] = static_cast<char>('0' + rrNext);
        buf[i++] = static_cast<char>('A' + active);
        for (bool d : disconnected)
            buf[i++] = d ? 'D' : '.';
        return std::string(buf, i);
    }
};

/** BFS bookkeeping: how a state was first reached. */
struct Prev
{
    std::string parentKey;
    std::string event;
};

struct Explorer
{
    const ServiceModelConfig &cfg;
    ServiceModelReport &report;
    /** cfg.jobs/cfg.clients clamped to the array bounds (validated
     *  upstream; the clamp lets the compiler see the range). */
    unsigned nJobs;
    unsigned nClients;
    std::unordered_map<std::string, Prev> visited;
    std::deque<State> frontier;

    unsigned
    clientOf(unsigned job) const
    {
        return job % nClients;
    }

    unsigned
    liveThreads(const State &s) const
    {
        unsigned n = 0;
        for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j)
            n += s.jobs[j].threadLive ? 1 : 0;
        return n;
    }

    unsigned
    slotsHeld(const State &s) const
    {
        unsigned n = 0;
        for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j)
            n += s.jobs[j].slotHeld ? 1 : 0;
        return n;
    }

    bool
    fifosEmpty(const State &s) const
    {
        for (unsigned c = 0; c < kMaxClients && c < nClients; ++c)
            if (!s.fifo[c].empty())
                return false;
        return true;
    }

    bool
    allSubmitted(const State &s) const
    {
        for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j)
            if (s.jobs[j].stage == Stage::NotSubmitted)
                return false;
        return true;
    }

    /** Mandatory work is drained: nothing left that must still run. */
    bool
    quiescent(const State &s) const
    {
        return allSubmitted(s) && fifosEmpty(s) &&
               liveThreads(s) == 0;
    }

    void
    fail(const State &s, const std::string &key, ServiceDefect kind,
         std::string detail)
    {
        ++report.violationsTotal;
        if (report.findings.size() >= kFindingCap)
            return;
        ServiceFinding f;
        f.kind = kind;
        f.detail = std::move(detail);
        // Walk the parent chain back to the initial state; the trace
        // reads forward once reversed.
        std::vector<std::string> steps;
        std::string at = key;
        for (;;) {
            auto it = visited.find(at);
            if (it == visited.end() || it->second.event.empty())
                break;
            steps.push_back(it->second.event);
            at = it->second.parentKey;
        }
        f.trace.reserve(steps.size());
        for (std::size_t i = steps.size(); i-- > 0;)
            f.trace.push_back(strprintf(
                "%zu. %s", steps.size() - i, steps[i].c_str()));
        (void)s;
        report.findings.push_back(std::move(f));
    }

    /** Check invariants of @p s; record findings against @p key. */
    void
    checkState(const State &s, const std::string &key)
    {
        if (s.active > cfg.depth)
            fail(s, key, ServiceDefect::SlotOverflow,
                 strprintf("active = %u exceeds queue depth %u",
                           s.active, cfg.depth));
        if (s.active != slotsHeld(s))
            fail(s, key, ServiceDefect::SlotDrift,
                 strprintf("active = %u but %u jobs hold a slot",
                           s.active, slotsHeld(s)));
        for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
            if (s.jobs[j].answers > 1)
                fail(s, key, ServiceDefect::DoubleAnswer,
                     strprintf("job %u answered %u times", j,
                               s.jobs[j].answers));
            if (s.jobs[j].waiterAnswers > s.jobs[j].attached)
                fail(s, key, ServiceDefect::DoubleAnswer,
                     strprintf("job %u rendered %u waiter answers "
                               "for %u attached waiters",
                               j, s.jobs[j].waiterAnswers,
                               s.jobs[j].attached));
        }
        if (!quiescent(s))
            return;
        ++report.quiescentStates;
        if (s.active != 0)
            fail(s, key, ServiceDefect::SlotLeak,
                 strprintf("quiescent with active = %u (slots never "
                           "released)",
                           s.active));
        for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
            const JobCell &cell = s.jobs[j];
            if (cell.stage == Stage::Queued ||
                cell.stage == Stage::Running)
                fail(s, key, ServiceDefect::StuckJob,
                     strprintf("quiescent with job %u still %s", j,
                               stageName(cell.stage)));
            bool admitted = cell.stage != Stage::NotSubmitted &&
                            cell.stage != Stage::Shed;
            if (admitted && cell.answers == 0)
                fail(s, key, ServiceDefect::LostJob,
                     strprintf("job %u reached %s but was never "
                               "answered",
                               j, stageName(cell.stage)));
            // Waiters hold no pool thread and no FIFO entry, so an
            // orphan is *exactly* a quiescent state that still has
            // one: a connection blocked forever on a finished
            // flight.
            if (cell.waiters != 0)
                fail(s, key, ServiceDefect::OrphanedWaiter,
                     strprintf("quiescent with %u waiter%s still "
                               "blocked on job %u (%s)",
                               cell.waiters,
                               cell.waiters == 1 ? "" : "s", j,
                               stageName(cell.stage)));
            else if (cell.waiterAnswers < cell.attached)
                fail(s, key, ServiceDefect::OrphanedWaiter,
                     strprintf("job %u attached %u waiters but "
                               "answered only %u",
                               j, cell.attached, cell.waiterAnswers));
        }
    }

    /** Enqueue @p next if unseen; always counts the transition. */
    void
    push(const State &from, State next, std::string event)
    {
        ++report.transitions;
        std::string k = next.key();
        if (visited.find(k) != visited.end())
            return;
        visited.emplace(k, Prev{from.key(), std::move(event)});
        checkState(next, k);
        frontier.push_back(std::move(next));
    }

    /**
     * Render one terminal answer for job @p j in @p s. Every terminal
     * transition — done, shed, cancelled, timed out — also answers
     * the job's attached waiters and retires its in-flight entry;
     * this is exactly why a dead leader cannot orphan its waiters in
     * the real ServiceCore (finishLocked answers before
     * anything can observe the terminal state).
     */
    void
    answer(State &s, unsigned j, Stage terminal) const
    {
        s.jobs[j].stage = terminal;
        ++s.jobs[j].answers;
        if (cfg.mutation == ServiceMutation::DropWaiterAnswer)
            return; // waiters stay blocked on the finished flight
        s.jobs[j].waiterAnswers = static_cast<std::uint8_t>(
            s.jobs[j].waiterAnswers + s.jobs[j].waiters);
        s.jobs[j].waiters = 0;
    }

    void
    expand(const State &s)
    {
        const ServiceMutation mut = cfg.mutation;

        // submit(j): shed at the bound, admit below it.
        for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
            if (s.jobs[j].stage != Stage::NotSubmitted)
                continue;
            unsigned c = clientOf(j);
            State n = s;
            if (s.active >= cfg.depth) {
                answer(n, j, Stage::Shed);
                if (mut == ServiceMutation::ShedLeaksSlot)
                    ++n.active;
                push(s, std::move(n),
                     strprintf("submit job %u (client c%u) -> shed, "
                               "answered overloaded (active %u/%u)",
                               j, c, s.active, cfg.depth));
            } else {
                n.jobs[j].stage = Stage::Queued;
                n.jobs[j].slotHeld = true;
                ++n.active;
                n.fifo[c].push_back(static_cast<std::uint8_t>(j));
                push(s, std::move(n),
                     strprintf("submit job %u (client c%u) -> "
                               "admitted, queued (active %u/%u)",
                               j, c, s.active + 1, cfg.depth));
            }
        }

        // dispatch: a free worker picks the round-robin next id. A
        // picked id whose job is no longer Queued is drained — the
        // task releases the admission slot it carries.
        if (!fifosEmpty(s) && liveThreads(s) < cfg.workers) {
            State n = s;
            unsigned picked = kMaxJobs;
            for (unsigned step = 0; step < nClients; ++step) {
                unsigned i = (n.rrNext + step) % nClients;
                if (n.fifo[i].empty())
                    continue;
                picked = n.fifo[i].front();
                n.fifo[i].erase(n.fifo[i].begin());
                n.rrNext =
                    static_cast<std::uint8_t>((i + 1) % nClients);
                break;
            }
            // The scan always finds an id (every admitted job puts
            // exactly one id in a FIFO); the guard just makes the
            // bound visible to the compiler.
            if (picked < kMaxJobs) {
                JobCell &cell = n.jobs[picked];
                if (cell.stage == Stage::Queued) {
                    cell.stage = Stage::Running;
                    cell.threadLive = true;
                    push(s, std::move(n),
                         strprintf("dispatch -> job %u running",
                                   picked));
                } else {
                    std::string event = strprintf(
                        "dispatch -> job %u already %s; task drains "
                        "and releases its slot",
                        picked, stageName(cell.stage));
                    if (mut != ServiceMutation::DropDrainRelease) {
                        cell.slotHeld = false;
                        --n.active;
                    }
                    push(s, std::move(n), std::move(event));
                }
            }
        }

        // complete(j): the executing thread finishes. On a live job
        // that's the Done answer; on a cancelled/abandoned one it is
        // a late completion — released and discarded, never
        // re-answered.
        for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
            if (!s.jobs[j].threadLive)
                continue;
            State n = s;
            JobCell &cell = n.jobs[j];
            cell.threadLive = false;
            if (cell.stage == Stage::Running) {
                answer(n, j, Stage::Done);
                cell.slotHeld = false;
                --n.active;
                push(s, std::move(n),
                     strprintf("complete job %u -> done, answered, "
                               "slot released",
                               j));
            } else {
                const char *was = stageName(cell.stage);
                if (mut != ServiceMutation::DropLateRelease) {
                    cell.slotHeld = false;
                    --n.active;
                }
                if (mut == ServiceMutation::DoubleAnswerLate)
                    answer(n, j, Stage::Done);
                if (mut == ServiceMutation::DoubleAnswerWaiters)
                    // The buggy late path replays every waiter
                    // answer the terminal transition already
                    // rendered.
                    cell.waiterAnswers = static_cast<std::uint8_t>(
                        cell.waiterAnswers + cell.attached);
                push(s, std::move(n),
                     strprintf("complete job %u -> late completion "
                               "(job was %s), discarded",
                               j, was));
            }
        }

        // attach: a duplicate submission of an in-flight spec joins
        // the leader job as a waiter — no admission slot, no FIFO
        // entry, no thread; just a blocked connection the leader's
        // terminal answer must serve. The stale-inflight mutation
        // models a finish path that forgot to erase the in-flight
        // entry: the duplicate then attaches to a dead leader.
        if (cfg.coalesce) {
            for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
                const JobCell &cell = s.jobs[j];
                if (cell.attached >= kMaxWaiters)
                    continue;
                bool in_flight = cell.stage == Stage::Queued ||
                                 cell.stage == Stage::Running;
                bool stale =
                    mut == ServiceMutation::StaleInflightAttach &&
                    (cell.stage == Stage::Done ||
                     cell.stage == Stage::TimedOut ||
                     cell.stage == Stage::Cancelled);
                if (!in_flight && !stale)
                    continue;
                State n = s;
                ++n.jobs[j].waiters;
                ++n.jobs[j].attached;
                push(s, std::move(n),
                     strprintf("duplicate submit of job %u's spec -> "
                               "coalesced onto %s leader as waiter "
                               "%u",
                               j, stageName(cell.stage),
                               cell.attached + 1u));
            }
        }

        // cancel(j): explicit cancel of a queued or running job.
        if (cfg.cancels) {
            for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
                const JobCell &cell = s.jobs[j];
                if (cell.cancelUsed ||
                    (cell.stage != Stage::Queued &&
                     cell.stage != Stage::Running))
                    continue;
                const char *was = stageName(cell.stage);
                State n = s;
                n.jobs[j].cancelUsed = true;
                if (cfg.mutation == ServiceMutation::SkipCancelAnswer)
                    n.jobs[j].stage = Stage::Cancelled;
                else
                    answer(n, j, Stage::Cancelled);
                push(s, std::move(n),
                     strprintf("cancel job %u (%s) -> cancelled%s", j,
                               was,
                               std::strcmp(was, "running") == 0
                                   ? ", thread abandoned"
                                   : ", stays in FIFO until drained"));
            }
        }

        // deadline expiry on a queued job: cancelled before dispatch.
        if (cfg.deadlines) {
            for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
                if (s.jobs[j].deadlineUsed ||
                    s.jobs[j].stage != Stage::Queued)
                    continue;
                State n = s;
                n.jobs[j].deadlineUsed = true;
                answer(n, j, Stage::Cancelled);
                push(s, std::move(n),
                     strprintf("deadline expires on queued job %u -> "
                               "cancelled before dispatch",
                               j));
            }
        }

        // watchdog (or running-deadline) fire: abandon the thread.
        if (cfg.watchdog) {
            for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
                if (s.jobs[j].stage != Stage::Running)
                    continue;
                State n = s;
                answer(n, j, Stage::TimedOut);
                push(s, std::move(n),
                     strprintf("watchdog fires on job %u -> "
                               "timed_out, thread abandoned",
                               j));
            }
        }

        // disconnect(c): the client's queued jobs are swept.
        if (cfg.disconnects) {
            for (unsigned c = 0; c < kMaxClients && c < nClients; ++c) {
                if (s.disconnected[c])
                    continue;
                State n = s;
                n.disconnected[c] = true;
                unsigned swept = 0;
                for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
                    if (clientOf(j) != c ||
                        n.jobs[j].stage != Stage::Queued)
                        continue;
                    answer(n, j, Stage::Cancelled);
                    ++swept;
                }
                push(s, std::move(n),
                     strprintf("client c%u disconnects -> %u queued "
                               "job%s cancelled",
                               c, swept, swept == 1 ? "" : "s"));
            }
        }

        // degraded escalation: first poll of an abandoned job
        // attaches the model-tier estimate (no accounting change).
        if (cfg.degrades) {
            for (unsigned j = 0; j < kMaxJobs && j < nJobs; ++j) {
                if (s.jobs[j].stage != Stage::TimedOut ||
                    s.jobs[j].degraded)
                    continue;
                State n = s;
                n.jobs[j].degraded = true;
                push(s, std::move(n),
                     strprintf("poll job %u -> degraded escalation "
                               "attaches model estimate",
                               j));
            }
        }
    }

    void
    run()
    {
        State init;
        std::string k0 = init.key();
        visited.emplace(k0, Prev{});
        checkState(init, k0);
        frontier.push_back(init);
        while (!frontier.empty()) {
            if (visited.size() > kStateCap) {
                report.truncated = true;
                break;
            }
            State s = std::move(frontier.front());
            frontier.pop_front();
            ++report.states;
            expand(s);
        }
    }
};

} // namespace

const char *
serviceMutationName(ServiceMutation m)
{
    switch (m) {
      case ServiceMutation::None:
        return "none";
      case ServiceMutation::DropDrainRelease:
        return "drop-drain-release";
      case ServiceMutation::DropLateRelease:
        return "drop-late-release";
      case ServiceMutation::DoubleAnswerLate:
        return "double-answer-late";
      case ServiceMutation::ShedLeaksSlot:
        return "shed-leaks-slot";
      case ServiceMutation::SkipCancelAnswer:
        return "skip-cancel-answer";
      case ServiceMutation::DropWaiterAnswer:
        return "drop-waiter-answer";
      case ServiceMutation::StaleInflightAttach:
        return "stale-inflight-attach";
      case ServiceMutation::DoubleAnswerWaiters:
        return "double-answer-waiters";
    }
    return "?";
}

bool
serviceMutationFromName(const std::string &name, ServiceMutation *out)
{
    if (name == "none") {
        *out = ServiceMutation::None;
        return true;
    }
    for (ServiceMutation m : allServiceMutations) {
        if (name == serviceMutationName(m)) {
            *out = m;
            return true;
        }
    }
    return false;
}

const char *
serviceDefectName(ServiceDefect d)
{
    switch (d) {
      case ServiceDefect::SlotOverflow:
        return "slot-overflow";
      case ServiceDefect::SlotDrift:
        return "slot-drift";
      case ServiceDefect::SlotLeak:
        return "slot-leak";
      case ServiceDefect::LostJob:
        return "lost-job";
      case ServiceDefect::DoubleAnswer:
        return "double-answer";
      case ServiceDefect::StuckJob:
        return "stuck-job";
      case ServiceDefect::OrphanedWaiter:
        return "orphaned-waiter";
    }
    return "?";
}

std::string
ServiceModelConfig::check() const
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
    return "";
}

std::string
ServiceModelReport::summary() const
{
    char flags[8];
    std::size_t nf = 0;
    if (config.cancels)
        flags[nf++] = 'c';
    if (config.deadlines)
        flags[nf++] = 'd';
    if (config.watchdog)
        flags[nf++] = 'w';
    if (config.disconnects)
        flags[nf++] = 'x';
    if (config.degrades)
        flags[nf++] = 'g';
    if (config.coalesce)
        flags[nf++] = 'f';
    if (nf == 0)
        flags[nf++] = '-';
    flags[nf] = '\0';
    std::string verdict;
    if (truncated)
        verdict = "TRUNCATED";
    else if (violationsTotal == 0)
        verdict = "clean";
    else
        verdict = strprintf(
            "%llu VIOLATIONS",
            static_cast<unsigned long long>(violationsTotal));
    return strprintf(
        "service jobs=%u clients=%u workers=%u depth=%u [%s] "
        "mutation=%-18s %8llu states %9llu transitions %6llu "
        "quiescent  %s",
        config.jobs, config.clients, config.workers, config.depth,
        flags, serviceMutationName(config.mutation),
        static_cast<unsigned long long>(states),
        static_cast<unsigned long long>(transitions),
        static_cast<unsigned long long>(quiescentStates),
        verdict.c_str());
}

ServiceModelReport
checkServiceLifecycle(const ServiceModelConfig &config)
{
    ServiceModelReport report;
    report.config = config;
    std::string err = config.check();
    if (!err.empty()) {
        ++report.violationsTotal;
        ServiceFinding f;
        f.kind = ServiceDefect::StuckJob;
        f.detail = "bad configuration: " + err;
        report.findings.push_back(std::move(f));
        return report;
    }
    Explorer ex{config, report,
                std::min(config.jobs, kMaxJobs),
                std::min(config.clients, kMaxClients),
                {}, {}};
    ex.run();
    return report;
}

} // namespace ringsim::verify
