/**
 * @file
 * Worker routing: liveness-aware forwarding with deterministic
 * failover.
 *
 * A WorkerPool tracks one connection-less record per worker endpoint
 * (alive flag, counters, last error) and forwards a request to the
 * workers in the key's failover order (fleet/shard). Three outcomes
 * are kept distinct because they demand different reactions:
 *
 *  - transport failure (dead socket, garbled line): the worker is
 *    marked dead and the request *requeues* onto the next shard —
 *    this is the requeue-on-worker-death path, and it is correct for
 *    every op because requests are idempotent (a replayed submit
 *    re-answers from the memo cache, byte-identically);
 *  - overload shed ({"ok":false} with retry_after_ms): the worker is
 *    alive, just full — try the next shard, and report "all shed" to
 *    the caller so it can degrade fleet-wide;
 *  - application error or success: deterministic — every worker would
 *    answer the same — so it is returned as-is, never failed over.
 *
 * Dead workers are re-probed lazily: the next forward whose failover
 * order crosses one pings it if 500 ms have elapsed, so recovery
 * needs no watchdog thread.
 */

#ifndef RINGSIM_FLEET_ROUTER_HPP
#define RINGSIM_FLEET_ROUTER_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"
#include "util/json.hpp"

namespace ringsim::fleet {

/** Point-in-time per-worker state, for statsz aggregation. */
struct WorkerSnapshot
{
    std::string endpoint;
    bool alive = true;
    std::uint64_t forwards = 0;  ///< successful round trips
    std::uint64_t failures = 0;  ///< transport failures observed
    std::uint64_t sheds = 0;     ///< overload rejections observed
    std::string lastError;       ///< most recent failure, "" if none
};

/** How one tryForward() ended. */
enum class ForwardOutcome
{
    Answered,   ///< *response holds a worker's answer (ok either way)
    AllShed,    ///< every reachable worker shed; degrade or back off
    AllDead,    ///< no worker reachable at all
};

class WorkerPool
{
  public:
    /** @param endpoints worker endpoints in shard order (nonempty) */
    explicit WorkerPool(std::vector<std::string> endpoints);

    std::size_t size() const { return endpoints_.size(); }

    /**
     * Forward @p request to the fleet in @p shard_key's failover
     * order. On Answered, @p *response is the answering worker's
     * parsed reply and @p *worker its index. On AllShed/AllDead,
     * @p *error summarizes the last failure. Thread safe; the socket
     * round trips run unlocked.
     */
    ForwardOutcome tryForward(const util::JsonValue &request,
                              const std::string &shard_key,
                              util::JsonValue *response,
                              std::size_t *worker, std::string *error)
        EXCLUDES(mutex_);

    /**
     * One round trip to worker @p index specifically (statsz
     * aggregation, tests). No failover; dead workers are still
     * attempted (and probed as a side effect). False + @p error on
     * transport failure.
     */
    [[nodiscard]] bool tryCallWorker(std::size_t index,
                                     const util::JsonValue &request,
                                     util::JsonValue *response,
                                     std::string *error)
        EXCLUDES(mutex_);

    /** Jobs that failed over past at least one dead worker. */
    std::uint64_t requeues() const EXCLUDES(mutex_);

    /** Per-worker state, indexed like the endpoint list. */
    std::vector<WorkerSnapshot> snapshot() const EXCLUDES(mutex_);

  private:
    using Clock = std::chrono::steady_clock;

    struct Worker
    {
        bool alive = true;
        std::uint64_t forwards = 0;
        std::uint64_t failures = 0;
        std::uint64_t sheds = 0;
        std::string lastError;
        Clock::time_point lastProbe{}; ///< last liveness re-probe
    };

    /**
     * True when worker @p index should be attempted: alive, or dead
     * with the re-probe interval elapsed (in which case the attempt
     * *is* the probe).
     */
    bool shouldAttempt(std::size_t index) EXCLUDES(mutex_);

    void noteSuccess(std::size_t index) EXCLUDES(mutex_);
    void noteTransportFailure(std::size_t index,
                              const std::string &error)
        EXCLUDES(mutex_);
    void noteShed(std::size_t index, const std::string &error)
        EXCLUDES(mutex_);

    const std::vector<std::string> endpoints_;

    mutable core::Mutex mutex_;
    std::vector<Worker> workers_ GUARDED_BY(mutex_);
    std::uint64_t requeues_ GUARDED_BY(mutex_) = 0;
};

} // namespace ringsim::fleet

#endif // RINGSIM_FLEET_ROUTER_HPP
