/**
 * @file
 * ringsim_fleetd: the fleet coordinator daemon.
 *
 * A service::ServiceCore whose executor forwards jobs to a fleet of
 * worker daemons: sharded by canonical-spec cache key, sweep jobs
 * split across workers and reassembled byte-identically, dead workers
 * failed over deterministically. Admission, coalescing, memoization,
 * deadlines, cancel and poll are ServiceCore's, exactly as in
 * ringsim_serve. See src/fleet/remote_executor.hpp.
 */

#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "fleet/fleet_config.hpp"
#include "fleet/remote_executor.hpp"
#include "service/config.hpp"
#include "service/server.hpp"
#include "service/socket_server.hpp"
#include "util/logging.hpp"

using namespace ringsim;

namespace {

/**
 * Coordinator executor threads per worker endpoint: each blocks on
 * one forward, so two keep every worker busy while the other's
 * answer travels back.
 */
constexpr std::size_t kExecutorsPerWorker = 2;

void
usage()
{
    std::cout <<
        "usage: ringsim_fleetd --workers E1,E2,... [flags]\n"
        "  --endpoint E        listen endpoint: tcp:PORT | unix:PATH "
        "| PATH\n"
        "                      (default ringsim-fleet.sock)\n"
        "  --workers E1,E2,... worker daemon endpoints, in shard "
        "order\n"
        "  --retry-after-ms N  backoff hint when shedding or no "
        "worker can\n"
        "                      answer (default 250)\n"
        "  --retain N          finished records kept for polling "
        "(default 1024)\n"
        "  --salt S            cache and shard salt (default "
        "$RINGSIM_CACHE_SALT)\n"
        "  --degrade           when no worker can answer, serve "
        "degradable\n"
        "                      jobs from the local analytic-model "
        "tier\n"
        "  --jobs-per-sweep N  fan-out of local degraded sweep "
        "solves\n"
        "  --test-jobs         accept the test-only sleep job kind\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // Same rationale as ringsim_serve: a client gone mid-response
    // must not kill the coordinator (worker sockets add more fds
    // that can break at any moment).
    std::signal(SIGPIPE, SIG_IGN);

    std::string endpoint = "ringsim-fleet.sock";
    fleet::FleetConfig fleet_cfg;
    service::ServiceConfig cfg =
        service::ServiceConfig::withEnvDefaults();

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--endpoint") {
            endpoint = need_value("--endpoint");
        } else if (arg == "--workers") {
            for (std::string &worker : service::splitEndpointList(
                     need_value("--workers")))
                fleet_cfg.workers.push_back(std::move(worker));
        } else if (arg == "--retry-after-ms") {
            cfg.retryAfterMs = std::strtoull(
                need_value("--retry-after-ms").c_str(), nullptr, 10);
        } else if (arg == "--retain") {
            cfg.retainDone = std::strtoull(
                need_value("--retain").c_str(), nullptr, 10);
        } else if (arg == "--salt") {
            cfg.salt = need_value("--salt");
        } else if (arg == "--degrade") {
            cfg.degradeToModel = true;
        } else if (arg == "--jobs-per-sweep") {
            cfg.jobsPerSweep = static_cast<unsigned>(std::strtoul(
                need_value("--jobs-per-sweep").c_str(), nullptr, 10));
        } else if (arg == "--test-jobs") {
            cfg.enableTestJobs = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            fatal("unknown flag '%s' (try --help)", arg.c_str());
        }
    }
    fleet_cfg.validate();
    cfg.workers = static_cast<unsigned>(kExecutorsPerWorker *
                                        fleet_cfg.workers.size());

    service::ServiceCore core(
        cfg, std::make_unique<fleet::RemoteExecutor>(fleet_cfg, cfg.salt));
    service::SocketServer server(core, endpoint);
    std::string error;
    if (!server.tryStart(&error))
        fatal("cannot serve: %s", error.c_str());
    inform("fleet: listening on %s (%zu workers)", endpoint.c_str(),
           fleet_cfg.workers.size());
    server.serve();
    inform("fleet: shutdown complete");
    return 0;
}
