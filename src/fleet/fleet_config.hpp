/**
 * @file
 * Fleet-coordinator configuration.
 *
 * One FleetConfig names the worker daemons a ringsim_fleetd instance
 * routes to. Everything else a coordinator is configured with —
 * salt, retention, retry hint, degradation — is a
 * service::ServiceConfig field, because the coordinator is a
 * ServiceCore.
 */

#ifndef RINGSIM_FLEET_FLEET_CONFIG_HPP
#define RINGSIM_FLEET_FLEET_CONFIG_HPP

#include <string>
#include <vector>

namespace ringsim::fleet {

/** The worker endpoints of one fleet coordinator. */
struct FleetConfig
{
    /** Worker daemon endpoints, in shard order. At least one. */
    std::vector<std::string> workers;

    /**
     * All misconfigurations, as human-readable "field = value"
     * messages (empty when the config is sound).
     */
    [[nodiscard]] std::vector<std::string> check() const;

    /** fatal() with the first check() error, if any. */
    void validate() const;
};

} // namespace ringsim::fleet

#endif // RINGSIM_FLEET_FLEET_CONFIG_HPP
