/**
 * @file
 * ringsim_verify: exhaustive protocol model checker CLI.
 *
 * With no arguments, checks both ring protocols across the default
 * matrix (2/3/4 nodes x 1/2 blocks, faults off and on), then explores
 * the service JobTable that ringsim_serve and ringsim_fleetd run
 * across its own matrix (workers x depth x retention), and prints one
 * summary line per configuration.
 * Exit status is 0 only when every configuration is clean, so the
 * build/CI can gate on it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "service/lifecycle_check.hpp"
#include "verify/model.hpp"

namespace {

using namespace ringsim;
using verify::ModelConfig;
using verify::ModelReport;

void
usage()
{
    std::printf(
        "usage: ringsim_verify [options]\n"
        "  --protocol=snoop|directory   check one protocol only\n"
        "  --nodes=N                    ring size (2..%u)\n",
        core::ptable::maxTableNodes);
    std::printf(
        "  --blocks=B                   blocks modeled (1..2)\n"
        "  --inflight=K                 concurrent transactions "
        "(1..3)\n"
        "  --faults=on|off              model the retry schedule\n"
        "  --full=on|off                product-space interleaving\n"
        "  --mutate=NAME                seed a broken transition\n"
        "  --list-mutations             print mutation names\n"
        "  --service                    service-lifecycle group only\n"
        "  --service-mutate=NAME        seed a broken service "
        "transition\n"
        "  --list-service-mutations     print service mutation names\n"
        "  --json                       machine-readable report\n"
        "With no --nodes/--protocol, runs the full default matrix\n"
        "(both protocol and service-lifecycle groups).\n");
}

/** Whether the product space is cheap enough for this point of the
 *  default matrix (single configs always honor --full). */
bool
defaultFullInterleaving(unsigned nodes, bool faults)
{
    return faults ? nodes <= 2 : nodes <= 3;
}

void
printJson(const std::vector<ModelReport> &reports,
          const std::vector<service::LifecycleReport> &lifecycle)
{
    std::printf("{\"protocol\": [\n");
    for (size_t i = 0; i < reports.size(); ++i) {
        const ModelReport &r = reports[i];
        std::printf(
            "  {\"protocol\": \"%s\", \"nodes\": %u, \"blocks\": %u,"
            " \"faults\": %s, \"full\": %s, \"mutation\": \"%s\",\n"
            "   \"functionalStates\": %llu, "
            "\"functionalTransitions\": %llu,"
            " \"plansAudited\": %llu, \"automatonStates\": %llu,\n"
            "   \"productStates\": %llu, \"productTransitions\": "
            "%llu, \"maxTraversals\": %u, \"violations\": %llu}%s\n",
            verify::protocolName(r.config.protocol), r.config.nodes,
            r.config.blocks, r.config.faults ? "true" : "false",
            r.config.fullInterleaving ? "true" : "false",
            core::ptable::mutationName(r.config.mutation),
            static_cast<unsigned long long>(r.functionalStates),
            static_cast<unsigned long long>(r.functionalTransitions),
            static_cast<unsigned long long>(r.plansAudited),
            static_cast<unsigned long long>(r.automatonStates),
            static_cast<unsigned long long>(r.productStates),
            static_cast<unsigned long long>(r.productTransitions),
            r.maxTraversals,
            static_cast<unsigned long long>(r.violationsTotal),
            i + 1 < reports.size() ? "," : "");
    }
    std::printf("], \"service\": [\n");
    for (size_t i = 0; i < lifecycle.size(); ++i) {
        const service::LifecycleReport &r = lifecycle[i];
        std::printf(
            "  {\"jobs\": %u, \"clients\": %u, \"workers\": %u, "
            "\"depth\": %u, \"retain\": %u, \"mutation\": \"%s\",\n"
            "   \"states\": %llu, \"transitions\": %llu, "
            "\"quiescent\": %llu, \"truncated\": %s, "
            "\"violations\": %llu}%s\n",
            r.config.jobs, r.config.clients, r.config.workers,
            r.config.depth, r.config.retainDone,
            service::tableMutationName(r.config.mutation),
            static_cast<unsigned long long>(r.states),
            static_cast<unsigned long long>(r.transitions),
            static_cast<unsigned long long>(r.quiescentStates),
            r.truncated ? "true" : "false",
            static_cast<unsigned long long>(r.violationsTotal),
            i + 1 < lifecycle.size() ? "," : "");
    }
    std::printf("]}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool haveProtocol = false, haveNodes = false;
    bool haveFaults = false, haveFull = false;
    bool serviceOnly = false;
    service::TableMutation serviceMutation = service::TableMutation::None;
    ModelConfig base;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both --opt=value and --opt value.
        auto value = [&](const char *prefix) -> const char * {
            size_t n = std::strlen(prefix) - 1; // without the '='
            if (arg.compare(0, n + 1, prefix) == 0)
                return arg.c_str() + n + 1;
            if (arg.compare(0, n, prefix, n) == 0 &&
                arg.size() == n && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        }
        if (arg == "--json") {
            json = true;
            continue;
        }
        if (arg == "--list-mutations") {
            for (auto m : core::ptable::allMutations)
                std::printf("%s\n", core::ptable::mutationName(m));
            return 0;
        }
        if (arg == "--list-service-mutations") {
            for (auto m : service::allTableMutations)
                std::printf("%s\n", service::tableMutationName(m));
            return 0;
        }
        if (arg == "--service") {
            serviceOnly = true;
            continue;
        }
        if (const char *v = value("--service-mutate=")) {
            if (!service::tableMutationFromName(v, &serviceMutation)) {
                std::fprintf(stderr,
                             "unknown service mutation \"%s\" "
                             "(--list-service-mutations)\n",
                             v);
                return 2;
            }
            serviceOnly = true;
            continue;
        }
        if (const char *v = value("--protocol=")) {
            if (std::strcmp(v, "snoop") == 0) {
                base.protocol = verify::Protocol::Snoop;
            } else if (std::strcmp(v, "directory") == 0) {
                base.protocol = verify::Protocol::Directory;
            } else {
                std::fprintf(stderr,
                             "unknown protocol \"%s\"\n", v);
                return 2;
            }
            haveProtocol = true;
            continue;
        }
        if (const char *v = value("--nodes=")) {
            base.nodes = static_cast<unsigned>(std::atoi(v));
            haveNodes = true;
            continue;
        }
        if (const char *v = value("--blocks=")) {
            base.blocks = static_cast<unsigned>(std::atoi(v));
            continue;
        }
        if (const char *v = value("--inflight=")) {
            base.inflight = static_cast<unsigned>(std::atoi(v));
            continue;
        }
        // --name, --name=on|off, or --name on|off (bare means on).
        auto onOff = [&](const char *name, bool *out, bool *have) {
            size_t n = std::strlen(name);
            if (arg.compare(0, n, name) == 0 && arg.size() > n &&
                arg[n] == '=') {
                *out = arg.compare(n + 1, std::string::npos,
                                   "on") == 0;
                *have = true;
                return true;
            }
            if (arg == name) {
                if (i + 1 < argc &&
                    (std::strcmp(argv[i + 1], "on") == 0 ||
                     std::strcmp(argv[i + 1], "off") == 0))
                    *out = std::strcmp(argv[++i], "on") == 0;
                else
                    *out = true;
                *have = true;
                return true;
            }
            return false;
        };
        if (onOff("--faults", &base.faults, &haveFaults))
            continue;
        if (onOff("--full", &base.fullInterleaving, &haveFull))
            continue;
        if (const char *v = value("--mutate=")) {
            if (!core::ptable::mutationFromName(v,
                                                &base.mutation)) {
                std::fprintf(stderr, "unknown mutation \"%s\" "
                                     "(--list-mutations)\n", v);
                return 2;
            }
            continue;
        }
        std::fprintf(stderr, "unknown option \"%s\"\n",
                     arg.c_str());
        usage();
        return 2;
    }

    std::vector<ModelConfig> jobs;
    if (serviceOnly) {
        // Service-lifecycle group only; no protocol configurations.
    } else if (haveProtocol || haveNodes) {
        ModelConfig c = base;
        std::string err = c.check();
        if (!err.empty()) {
            std::fprintf(stderr, "bad configuration: %s\n",
                         err.c_str());
            return 2;
        }
        jobs.push_back(c);
    } else {
        for (auto proto : {verify::Protocol::Snoop,
                           verify::Protocol::Directory}) {
            for (unsigned nodes : {2u, 3u, 4u}) {
                for (unsigned blocks : {1u, 2u}) {
                    for (bool faults : {false, true}) {
                        if (haveFaults && faults != base.faults)
                            continue;
                        ModelConfig c = base;
                        c.protocol = proto;
                        c.nodes = nodes;
                        c.blocks = blocks;
                        c.faults = faults;
                        if (!haveFull)
                            c.fullInterleaving =
                                defaultFullInterleaving(nodes,
                                                        faults);
                        jobs.push_back(c);
                    }
                }
            }
        }
    }

    // The service-lifecycle group runs in the default matrix and
    // whenever --service/--service-mutate asks for it; a single
    // protocol configuration (--protocol/--nodes) skips it.
    std::vector<service::LifecycleConfig> serviceJobs;
    if (serviceOnly || !(haveProtocol || haveNodes))
        serviceJobs = service::lifecycleMatrix(serviceMutation);

    std::vector<ModelReport> reports;
    std::uint64_t violations = 0;
    for (const ModelConfig &job : jobs) {
        ModelReport rep = verify::checkProtocol(job);
        violations += rep.violationsTotal;
        if (!json) {
            std::printf("%s\n", rep.summary().c_str());
            for (const verify::Finding &f : rep.findings)
                std::printf("    %s: %s\n",
                            verify::defectName(f.kind),
                            f.detail.c_str());
        }
        reports.push_back(std::move(rep));
    }

    std::vector<service::LifecycleReport> serviceReports;
    for (const service::LifecycleConfig &job : serviceJobs) {
        service::LifecycleReport rep = service::checkLifecycle(job);
        violations += rep.violationsTotal;
        if (rep.truncated)
            ++violations;
        if (!json) {
            std::printf("%s\n", rep.summary().c_str());
            for (const service::LifecycleFinding &f : rep.findings) {
                std::printf("    %s: %s\n",
                            service::lifecycleDefectName(f.kind),
                            f.detail.c_str());
                for (const std::string &step : f.trace)
                    std::printf("        %s\n", step.c_str());
            }
        }
        serviceReports.push_back(std::move(rep));
    }

    if (json)
        printJson(reports, serviceReports);
    else
        std::printf("%zu configuration%s checked, %llu violation%s\n",
                    reports.size() + serviceReports.size(),
                    reports.size() + serviceReports.size() == 1
                        ? ""
                        : "s",
                    static_cast<unsigned long long>(violations),
                    violations == 1 ? "" : "s");
    return violations == 0 ? 0 : 1;
}
