/**
 * @file
 * RemoteExecutor: the executor behind ringsim_fleetd.
 *
 * ringsim_fleetd is a service::ServiceCore — the same admission,
 * single-flight coalescing, memoization, deadlines, cancel, watchdog
 * and poll as a worker daemon — whose admitted jobs are answered by
 * worker daemons instead of an in-process simulator:
 *
 *  - A job is sharded by the 128-bit cache key of its canonical spec
 *    (fleet/shard), so equal specs land on the same worker's warm
 *    cache.
 *  - A whole-figure sweep is split into per-block subjobs fanned out
 *    across the fleet through a runner pool and reassembled
 *    byte-identically to a direct renderFigure() run (the per-block
 *    output contract of src/figures is what makes this legal).
 *  - A worker that dies mid-job is detected by its broken socket and
 *    the job requeues onto the next shard in the deterministic
 *    failover order (fleet/router).
 *  - When no worker can answer at all, execute() says so and
 *    ServiceCore answers exactly as it answers an admission shed: the
 *    model-tier estimate under --degrade, else retry_after_ms.
 *
 * The statsz section tags the daemon's role "fleet" and adds fleet
 * counters, a per-worker section (liveness plus each worker's own
 * statsz) and counters summed across the workers.
 */

#ifndef RINGSIM_FLEET_REMOTE_EXECUTOR_HPP
#define RINGSIM_FLEET_REMOTE_EXECUTOR_HPP

#include <atomic>
#include <cstdint>
#include <string>

#include "fleet/fleet_config.hpp"
#include "fleet/router.hpp"
#include "service/executor.hpp"

namespace ringsim::fleet {

class RemoteExecutor : public service::Executor
{
  public:
    /**
     * @param cfg  the worker endpoints (validated here)
     * @param salt joined into every shard key; the coordinator passes
     *             its own cache salt, so it shards by the key it
     *             memoizes under
     */
    RemoteExecutor(const FleetConfig &cfg, std::string salt);

    service::Execution execute(const service::JobSpec &spec,
                               const util::JsonValue &job) override;

    void addStatsz(util::JsonValue *statsz) override;

  private:
    /**
     * Forward @p job to @p shard_key's shard (with failover) and
     * return the worker's done answer. Throws Unavailable when no
     * worker answered, std::runtime_error when the job failed there.
     */
    util::JsonValue forward(const util::JsonValue &job,
                            const std::string &shard_key);

    /**
     * Split a whole-figure sweep into its @p blocks per-block
     * subjobs, fan them out across the fleet and reassemble the
     * rendered figure; returns the result object.
     */
    util::JsonValue splitSweep(const service::JobSpec &spec,
                               const util::JsonValue &job,
                               std::size_t blocks);

    WorkerPool pool_;
    const std::string salt_;

    std::atomic<std::uint64_t> forwarded_{0};
    std::atomic<std::uint64_t> sweepSplits_{0};
    std::atomic<std::uint64_t> partsForwarded_{0};
    std::atomic<std::uint64_t> unavailable_{0};
};

} // namespace ringsim::fleet

#endif // RINGSIM_FLEET_REMOTE_EXECUTOR_HPP
