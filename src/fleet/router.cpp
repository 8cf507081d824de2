#include "router.hpp"

#include "fleet/shard.hpp"
#include "service/client.hpp"
#include "util/logging.hpp"

namespace ringsim::fleet {

namespace {

/** Minimum interval between liveness re-probes of a dead worker. */
constexpr std::chrono::milliseconds kProbeInterval{500};

/**
 * Transport attempts per worker before failing over. Small by design:
 * a dead worker should cost milliseconds, not a retry storm, because
 * the failover path recomputes correctly anyway.
 */
constexpr unsigned kAttempts = 2;

/**
 * One request/response round trip on a fresh connection. Distinguishes
 * transport failure (false) from an answer (true) — an answer may
 * still say ok:false, which the caller classifies as shed vs
 * application error.
 */
bool
tryRoundTrip(const std::string &endpoint, unsigned attempts,
             const util::JsonValue &request, util::JsonValue *response,
             std::string *error)
{
    service::ServiceClient client;
    if (!client.tryConnect(endpoint, error))
        return false;
    std::string line = request.dump();
    for (unsigned attempt = 0; attempt < attempts; ++attempt) {
        std::string reply;
        if (!client.tryRequest(line, &reply, error)) {
            // Reconnect once per remaining attempt; a worker that
            // dropped mid-read stays dead for a SIGKILL, but survives
            // a single chaotic disconnect.
            if (attempt + 1 < attempts &&
                client.tryConnect(endpoint, error))
                continue;
            return false;
        }
        if (!util::tryParseJson(reply, response, error)) {
            *error = "garbled response: " + *error;
            if (attempt + 1 < attempts)
                continue;
            return false;
        }
        return true;
    }
    return false;
}

/** True when a parsed {"ok":false} reply is an overload shed. */
bool
isShed(const util::JsonValue &response)
{
    const util::JsonValue *ok = response.find("ok");
    if (ok == nullptr || !ok->isBool() || ok->asBool())
        return false;
    return response.find("retry_after_ms") != nullptr;
}

} // namespace

WorkerPool::WorkerPool(std::vector<std::string> endpoints)
    : endpoints_(std::move(endpoints))
{
    if (endpoints_.empty())
        panic("WorkerPool: no endpoints");
    core::MutexLock lock(mutex_);
    workers_.resize(endpoints_.size());
}

bool
WorkerPool::shouldAttempt(std::size_t index)
{
    core::MutexLock lock(mutex_);
    Worker &worker = workers_[index];
    if (worker.alive)
        return true;
    Clock::time_point now = Clock::now();
    if (now - worker.lastProbe < kProbeInterval)
        return false;
    // The attempt itself is the probe: success revives the worker,
    // failure re-stamps lastProbe via noteTransportFailure.
    worker.lastProbe = now;
    return true;
}

void
WorkerPool::noteSuccess(std::size_t index)
{
    core::MutexLock lock(mutex_);
    Worker &worker = workers_[index];
    worker.alive = true;
    ++worker.forwards;
    worker.lastError.clear();
}

void
WorkerPool::noteTransportFailure(std::size_t index,
                                 const std::string &error)
{
    core::MutexLock lock(mutex_);
    Worker &worker = workers_[index];
    worker.alive = false;
    worker.lastProbe = Clock::now();
    ++worker.failures;
    worker.lastError = error;
}

void
WorkerPool::noteShed(std::size_t index, const std::string &error)
{
    core::MutexLock lock(mutex_);
    Worker &worker = workers_[index];
    worker.alive = true; // shedding is a sign of life
    ++worker.sheds;
    worker.lastError = error;
}

ForwardOutcome
WorkerPool::tryForward(const util::JsonValue &request,
                       const std::string &shard_key,
                       util::JsonValue *response, std::size_t *worker,
                       std::string *error)
{
    std::vector<std::size_t> order =
        failoverOrder(shard_key, endpoints_.size());
    bool any_shed = false;
    bool failed_over = false;
    std::string last_error = "no worker attempted";
    for (std::size_t index : order) {
        if (!shouldAttempt(index)) {
            failed_over = true;
            continue;
        }
        util::JsonValue reply;
        std::string attempt_error;
        if (!tryRoundTrip(endpoints_[index], kAttempts, request,
                          &reply, &attempt_error)) {
            noteTransportFailure(index, attempt_error);
            last_error =
                endpoints_[index] + ": " + attempt_error;
            failed_over = true;
            continue;
        }
        if (isShed(reply)) {
            std::string shed_error = "overloaded";
            if (const util::JsonValue *msg = reply.find("error");
                msg != nullptr && msg->isString())
                shed_error = msg->asString();
            noteShed(index, shed_error);
            last_error = endpoints_[index] + ": " + shed_error;
            any_shed = true;
            continue;
        }
        // Success or a deterministic application error: either way
        // the answer is authoritative, so stop here.
        noteSuccess(index);
        if (failed_over) {
            core::MutexLock lock(mutex_);
            ++requeues_;
        }
        *response = std::move(reply);
        *worker = index;
        return ForwardOutcome::Answered;
    }
    *error = last_error;
    return any_shed ? ForwardOutcome::AllShed : ForwardOutcome::AllDead;
}

bool
WorkerPool::tryCallWorker(std::size_t index,
                          const util::JsonValue &request,
                          util::JsonValue *response, std::string *error)
{
    if (index >= endpoints_.size())
        panic("tryCallWorker: index %zu of %zu", index,
              endpoints_.size());
    util::JsonValue reply;
    if (!tryRoundTrip(endpoints_[index], kAttempts, request, &reply,
                      error)) {
        noteTransportFailure(index, *error);
        return false;
    }
    noteSuccess(index);
    *response = std::move(reply);
    return true;
}

std::uint64_t
WorkerPool::requeues() const
{
    core::MutexLock lock(mutex_);
    return requeues_;
}

std::vector<WorkerSnapshot>
WorkerPool::snapshot() const
{
    core::MutexLock lock(mutex_);
    std::vector<WorkerSnapshot> out;
    out.reserve(workers_.size());
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        WorkerSnapshot snap;
        snap.endpoint = endpoints_[i];
        snap.alive = workers_[i].alive;
        snap.forwards = workers_[i].forwards;
        snap.failures = workers_[i].failures;
        snap.sheds = workers_[i].sheds;
        snap.lastError = workers_[i].lastError;
        out.push_back(std::move(snap));
    }
    return out;
}

} // namespace ringsim::fleet
