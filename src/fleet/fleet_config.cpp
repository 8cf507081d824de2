#include "fleet_config.hpp"

#include "service/socket_server.hpp"
#include "util/logging.hpp"

namespace ringsim::fleet {

std::vector<std::string>
FleetConfig::check() const
{
    std::vector<std::string> errors;
    if (workers.empty())
        errors.push_back(
            "workers = []: a fleet needs at least one worker "
            "endpoint");
    for (const std::string &worker : workers) {
        int tcp_port = -1;
        std::string unix_path, endpoint_error;
        if (!service::tryParseEndpoint(worker, &tcp_port, &unix_path,
                                       &endpoint_error))
            errors.push_back("workers: " + endpoint_error);
    }
    for (std::size_t i = 0; i < workers.size(); ++i) {
        for (std::size_t j = i + 1; j < workers.size(); ++j) {
            if (workers[i] == workers[j])
                errors.push_back(
                    "workers: endpoint '" + workers[i] +
                    "' listed twice (shards would double up)");
        }
    }
    return errors;
}

void
FleetConfig::validate() const
{
    std::vector<std::string> errors = check();
    if (!errors.empty())
        fatal("fleet config: %s", errors.front().c_str());
}

} // namespace ringsim::fleet
