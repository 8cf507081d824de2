#include "job_table.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace ringsim::service {

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Done:
        return "done";
      case JobState::Failed:
        return "failed";
      case JobState::TimedOut:
        return "timed_out";
      case JobState::Cancelled:
        return "cancelled";
    }
    return "?";
}

const char *
tableMutationName(TableMutation m)
{
    switch (m) {
      case TableMutation::None:
        return "none";
      case TableMutation::DropDrainRelease:
        return "drop-drain-release";
      case TableMutation::DropLateRelease:
        return "drop-late-release";
      case TableMutation::DoubleAnswerLate:
        return "double-answer-late";
      case TableMutation::ShedLeaksSlot:
        return "shed-leaks-slot";
      case TableMutation::SkipCancelAnswer:
        return "skip-cancel-answer";
      case TableMutation::StaleInflightAttach:
        return "stale-inflight-attach";
      case TableMutation::IgnoreInflight:
        return "ignore-inflight";
    }
    return "?";
}

bool
tableMutationFromName(const std::string &name, TableMutation *out)
{
    if (name == "none") {
        *out = TableMutation::None;
        return true;
    }
    for (TableMutation m : allTableMutations) {
        if (name == tableMutationName(m)) {
            *out = m;
            return true;
        }
    }
    return false;
}

JobTable::Admission
JobTable::admit(const std::string &client, const JobSpec &spec,
                const util::JsonValue &job, const std::string &key,
                bool degradable, TimePoint now)
{
    ++counters_.submitted;
    Admission a;
    // Single-flight: an identical cacheable spec already admitted and
    // not yet terminal answers this submit too — attach to the
    // leader's id instead of executing twice. Consumes no admission
    // slot, so coalescing keeps working under overload (exactly when
    // duplicate retries pile up).
    if (!key.empty() && mutation_ != TableMutation::IgnoreInflight) {
        auto flight = inflight_.find(key);
        if (flight != inflight_.end()) {
            const JobRecord *leader = find(flight->second);
            if (leader && inFlight(leader->state)) {
                ++counters_.coalesced;
                a.outcome = Admission::Outcome::Coalesced;
                a.id = flight->second;
                a.leaderState = leader->state;
                return a;
            }
            // finish() erases terminal leaders; a stale entry here
            // means the record was dropped.
            inflight_.erase(flight);
        }
    }
    if (active_ >= queueDepth_) {
        ++counters_.shed;
        a.outcome = Admission::Outcome::Shed;
        a.busy = active_;
        if (mutation_ == TableMutation::ShedLeaksSlot)
            ++active_;
        if (degradable)
            a.id = next_id_++;
        return a;
    }
    ++counters_.admitted;
    ++active_;
    a.id = next_id_++;
    JobRecord rec;
    rec.id = a.id;
    rec.client = client;
    rec.spec = spec;
    rec.job = job;
    rec.key = key;
    rec.degradable = degradable;
    rec.enqueued = now;
    jobs_.emplace(a.id, std::move(rec));

    // Find (or open) this client's FIFO. The client set is tiny — a
    // linear scan keeps the visit order deterministic.
    auto it = std::find_if(queues_.begin(), queues_.end(),
                           [&](const ClientQueue &q) {
                               return q.name == client;
                           });
    if (it == queues_.end()) {
        queues_.push_back(ClientQueue{client, {}});
        it = std::prev(queues_.end());
    }
    it->pending.push_back(a.id);
    if (!key.empty())
        inflight_[key] = a.id;
    return a;
}

std::uint64_t
JobTable::pickNext()
{
    // Round-robin: resume the sweep one past the last served client,
    // take the head of the first non-empty FIFO.
    const std::size_t n = queues_.size();
    for (std::size_t step = 0; step < n; ++step) {
        std::size_t i = (rr_next_ + step) % n;
        if (!queues_[i].pending.empty()) {
            std::uint64_t id = queues_[i].pending.front();
            queues_[i].pending.pop_front();
            rr_next_ = (i + 1) % n;
            return id;
        }
    }
    return 0;
}

std::optional<JobTable::Dispatch>
JobTable::dispatch(TimePoint now)
{
    std::uint64_t id = pickNext();
    // A record can vanish before its task picks it up (dropped from
    // retention) or stop being runnable (cancelled or deadline-expired
    // while queued), but the task still owns one admission slot —
    // leaking it would shrink the effective queue depth permanently.
    auto it = id != 0 ? jobs_.find(id) : jobs_.end();
    if (it == jobs_.end() || it->second.state != JobState::Queued) {
        if (mutation_ != TableMutation::DropDrainRelease)
            --active_;
        return std::nullopt;
    }
    JobRecord &rec = it->second;
    rec.state = JobState::Running;
    rec.started = now;
    running_.push_back(id);
    return Dispatch{id, rec.spec, std::move(rec.job), rec.key};
}

std::optional<double>
JobTable::complete(std::uint64_t id, Outcome outcome, TimePoint now)
{
    running_.erase(std::remove(running_.begin(), running_.end(), id),
                   running_.end());
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::Running) {
        // The watchdog, a deadline or a cancel already answered for
        // this job (and retention may since have dropped its record);
        // the thread was merely abandoned, not interrupted. Release
        // the slot, count the completion and discard it.
        if (mutation_ != TableMutation::DropLateRelease)
            --active_;
        if (mutation_ == TableMutation::DoubleAnswerLate &&
            it != jobs_.end()) {
            finish(it->second, JobState::Done, std::move(outcome.text));
            return std::nullopt;
        }
        ++counters_.lateCompletions;
        return std::nullopt;
    }
    --active_;
    JobRecord &rec = it->second;
    double ms = std::chrono::duration<double, std::milli>(
                    now - rec.enqueued)
                    .count();
    if (outcome.ok) {
        ++counters_.completed;
        if (outcome.degraded) {
            ++counters_.degraded;
            rec.degraded = true;
        }
        finish(rec, JobState::Done, std::move(outcome.text));
    } else {
        ++counters_.failed;
        rec.unavailable = outcome.unavailable;
        finish(rec, JobState::Failed, std::move(outcome.text));
    }
    return ms;
}

const JobRecord *
JobTable::cancel(std::uint64_t id)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return nullptr;
    JobRecord &rec = it->second;
    if (inFlight(rec.state)) {
        // A queued job never runs (its pool task releases the slot
        // when it drains); a running one is abandoned like a watchdog
        // timeout — the thread finishes and is discarded.
        if (mutation_ == TableMutation::SkipCancelAnswer) {
            rec.state = JobState::Cancelled;
        } else {
            ++counters_.cancelled;
            finish(rec, JobState::Cancelled, "cancelled by request");
        }
    }
    return find(id);
}

void
JobTable::clientGone(const std::string &client)
{
    for (const ClientQueue &q : queues_) {
        if (q.name != client)
            continue;
        for (std::uint64_t id : q.pending) {
            auto it = jobs_.find(id);
            if (it == jobs_.end() ||
                it->second.state != JobState::Queued)
                continue;
            ++counters_.cancelled;
            finish(it->second, JobState::Cancelled,
                   "cancelled: client disconnected");
        }
    }
}

bool
JobTable::expire(std::uint64_t id, Expiry why)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    JobRecord &rec = it->second;
    const std::uint64_t dl = rec.spec.deadlineMs;
    if (rec.state == JobState::Running) {
        // The thread cannot be interrupted: abandon it, and count and
        // discard its late completion.
        ++counters_.timedOut;
        if (why == Expiry::Watchdog) {
            finish(rec, JobState::TimedOut,
                   strprintf("watchdog: exceeded %lld ms",
                             static_cast<long long>(watchdog_.count())));
        } else {
            ++counters_.deadlineExpired;
            finish(rec, JobState::TimedOut,
                   strprintf("deadline: exceeded %llu ms while running",
                             static_cast<unsigned long long>(dl)));
        }
        return true;
    }
    if (rec.state != JobState::Queued || why != Expiry::Deadline)
        return false;
    // The id stays in its client FIFO: the pool task that eventually
    // picks it sees a non-queued record and releases the slot.
    ++counters_.cancelled;
    ++counters_.deadlineExpired;
    finish(rec, JobState::Cancelled,
           strprintf("deadline: %llu ms expired before dispatch",
                     static_cast<unsigned long long>(dl)));
    return true;
}

bool
JobTable::reap(TimePoint now)
{
    // Running jobs: the watchdog budget counts from dispatch, a
    // deadline from admission.
    bool reaped = false;
    for (std::uint64_t id : running_) {
        const JobRecord *rec = find(id);
        if (!rec || rec->state != JobState::Running)
            continue;
        std::uint64_t dl = rec->spec.deadlineMs;
        if (watchdog_.count() > 0 && now - rec->started >= watchdog_)
            reaped |= expire(id, Expiry::Watchdog);
        else if (dl > 0 &&
                 now - rec->enqueued >= std::chrono::milliseconds(dl))
            reaped |= expire(id, Expiry::Deadline);
    }
    // Queued jobs: a deadline that expires before dispatch cancels
    // the job in place.
    for (const ClientQueue &q : queues_) {
        for (std::uint64_t id : q.pending) {
            const JobRecord *rec = find(id);
            if (!rec || rec->state != JobState::Queued)
                continue;
            std::uint64_t dl = rec->spec.deadlineMs;
            if (dl > 0 &&
                now - rec->enqueued >= std::chrono::milliseconds(dl))
                reaped |= expire(id, Expiry::Deadline);
        }
    }
    return reaped;
}

const JobSpec *
JobTable::claimDegrade(std::uint64_t id)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return nullptr;
    JobRecord &rec = it->second;
    if (rec.state != JobState::TimedOut || !rec.degradable ||
        rec.degradeStarted)
        return nullptr;
    rec.degradeStarted = true;
    return &rec.spec;
}

const JobRecord *
JobTable::attachDegraded(std::uint64_t id,
                         std::optional<std::string> estimate)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return nullptr;
    if (estimate) {
        ++counters_.degraded;
        it->second.degraded = true;
        it->second.result = std::move(*estimate);
    }
    return &it->second;
}

const JobRecord *
JobTable::find(std::uint64_t id) const
{
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second;
}

std::uint64_t
JobTable::flightOf(const std::string &key) const
{
    auto it = inflight_.find(key);
    return it == inflight_.end() ? 0 : it->second;
}

void
JobTable::encode(std::string *out) const
{
    for (std::uint64_t id = 1; id < next_id_; ++id) {
        const JobRecord *rec = find(id);
        out->push_back(rec ? static_cast<char>(
                                 'a' + static_cast<int>(rec->state) * 8 +
                                 rec->degraded + 2 * rec->degradeStarted +
                                 4 * rec->unavailable)
                           : '-');
    }
    for (const ClientQueue &q : queues_) {
        *out += '|' + q.name + ':';
        for (std::uint64_t id : q.pending)
            *out += std::to_string(id) + ',';
    }
    *out += strprintf("|%zu,%zu|", rr_next_, active_);
    for (std::uint64_t id : running_)
        *out += std::to_string(id) + ',';
    *out += '|';
    for (std::uint64_t id : done_order_)
        *out += std::to_string(id) + ',';
}

void
JobTable::finish(JobRecord &rec, JobState state,
                 std::string result_or_error)
{
    // The leader is terminal: detach its single-flight entry so the
    // next identical submit starts (or cache-hits) fresh. Waiters on
    // this id read the terminal answer — a cancelled or timed-out
    // leader answers them with that state rather than orphaning them.
    if (!rec.key.empty() &&
        mutation_ != TableMutation::StaleInflightAttach) {
        auto flight = inflight_.find(rec.key);
        if (flight != inflight_.end() && flight->second == rec.id)
            inflight_.erase(flight);
    }
    rec.state = state;
    if (state == JobState::Done)
        rec.result = std::move(result_or_error);
    else
        rec.error = std::move(result_or_error);
    done_order_.push_back(rec.id);
    // Trim oldest first. The record just finished is the newest and
    // retainDone >= 1, so it outlives its own finish and every caller
    // may answer from it; a late completion whose record was dropped
    // is counted in complete().
    while (done_order_.size() > retainDone_) {
        jobs_.erase(done_order_.front());
        done_order_.pop_front();
    }
}

} // namespace ringsim::service
