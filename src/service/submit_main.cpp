/**
 * @file
 * ringsim_submit: command-line client for ringsim_serve /
 * ringsim_fleetd.
 *
 *   ringsim_submit --endpoint E ping
 *   ringsim_submit --endpoint E submit [--wait] [--text]
 *                  [--client NAME] [--deadline-ms N] [--no-degrade]
 *                  '<job json>'   ("-" = stdin)
 *   ringsim_submit --endpoint E poll ID
 *   ringsim_submit --endpoint E cancel ID
 *   ringsim_submit --endpoint E stream ID [--interval-ms N]
 *   ringsim_submit --endpoint E statsz
 *   ringsim_submit --endpoint E shutdown
 *
 * --service E1,E2,... targets a fleet of daemons directly, with
 * deterministic routing: a submit connects to the shard its job's
 * fleet::shardKey owns under $RINGSIM_CACHE_SALT (the same key and
 * shard function ringsim_fleetd uses, so the CLI and a coordinator
 * with the same salt agree on placement), and fails over along the
 * key's failover order when that daemon is down.
 * Other commands try the endpoints in listed order. Job ids are
 * per-daemon — poll/cancel/stream a multi-endpoint id on the daemon
 * that answered the submit (printed as "endpoint").
 *
 * Every command prints the server's response line; --text unwraps a
 * sweep result's rendered table instead, so a routed figure run can be
 * diffed byte-for-byte against the bench binary's stdout.
 *
 * Requests ride the resilient client call: a dropped connection, a
 * garbled response or an overload shed is retried transparently, so
 * the CLI keeps working against a daemon running with --chaos.
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "fleet/shard.hpp"
#include "service/client.hpp"
#include "service/config.hpp"
#include "service/job.hpp"
#include "service/socket_server.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

using namespace ringsim;

namespace {

void
usage()
{
    std::cout <<
        "usage: ringsim_submit [--endpoint E | --service E1,E2,...] "
        "COMMAND\n"
        "  ping\n"
        "  submit [--wait] [--text] [--client NAME]\n"
        "         [--deadline-ms N] [--no-degrade] '<job json>'\n"
        "  poll ID\n"
        "  cancel ID\n"
        "  stream ID [--interval-ms N]\n"
        "  statsz\n"
        "  shutdown\n"
        "Job JSON of '-' is read from stdin. Default endpoint: "
        "ringsim.sock\n"
        "--service routes a submit to its job's shard (failing over\n"
        "deterministically) and other commands to the first "
        "reachable\n"
        "endpoint in listed order.\n";
}

/**
 * Connect to the first reachable endpoint of @p order (indices into
 * @p endpoints); fatal() when none answers. Fills @p *chosen.
 */
service::ServiceClient
connectOrDie(const std::vector<std::string> &endpoints,
             const std::vector<std::size_t> &order,
             std::string *chosen)
{
    std::string first_error;
    for (std::size_t index : order) {
        service::ServiceClient client;
        std::string error;
        if (client.tryConnect(endpoints[index], &error)) {
            *chosen = endpoints[index];
            return client;
        }
        if (first_error.empty())
            first_error = endpoints[index] + ": " + error;
        if (endpoints.size() > 1)
            warn("%s: %s (failing over)", endpoints[index].c_str(),
                 error.c_str());
    }
    fatal("no endpoint reachable: %s", first_error.c_str());
}

/** The listed-order identity permutation 0..n-1. */
std::vector<std::size_t>
listedOrder(std::size_t n)
{
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        order.push_back(i);
    return order;
}

util::JsonValue
callOrDie(service::ServiceClient &client,
          const util::JsonValue &request)
{
    util::JsonValue response;
    std::string error;
    if (!client.tryCallResilient(request, &response, &error))
        fatal("%s", error.c_str());
    return response;
}

/** Print a response; with @p text, unwrap result.text when present. */
void
printResponse(const util::JsonValue &response, bool text)
{
    if (text) {
        if (const util::JsonValue *result = response.find("result")) {
            if (const util::JsonValue *t = result->find("text")) {
                std::cout << t->asString();
                return;
            }
        }
    }
    std::cout << response.dump() << "\n";
}

int
cmdSubmit(const std::vector<std::string> &endpoints, int argc,
          char **argv, int i)
{
    bool wait = false, text = false, no_degrade = false;
    std::uint64_t deadline_ms = 0;
    std::string who, job_text;
    for (; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--wait") {
            wait = true;
        } else if (arg == "--text") {
            text = true;
        } else if (arg == "--no-degrade") {
            no_degrade = true;
        } else if (arg == "--deadline-ms") {
            if (i + 1 >= argc)
                fatal("--deadline-ms needs a value");
            deadline_ms = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--client") {
            if (i + 1 >= argc)
                fatal("--client needs a value");
            who = argv[++i];
        } else if (job_text.empty()) {
            job_text = arg;
        } else {
            fatal("unexpected argument '%s'", arg.c_str());
        }
    }
    if (job_text.empty())
        fatal("submit needs a job JSON argument ('-' = stdin)");
    if (job_text == "-") {
        std::string line;
        job_text.clear();
        while (std::getline(std::cin, line))
            job_text += line;
    }
    util::JsonValue job;
    std::string error;
    if (!util::tryParseJson(job_text, &job, &error))
        fatal("bad job json: %s", error.c_str());
    if (deadline_ms > 0)
        job.set("deadline_ms", util::JsonValue::integer(deadline_ms));
    if (no_degrade)
        job.set("degrade", util::JsonValue::boolean(false));

    // Deterministic placement: route to the shard the job's key
    // owns, computed exactly as a fleet coordinator does (the same
    // shardKey under the same $RINGSIM_CACHE_SALT default), so a
    // repeat submission from any client lands on the same daemon's
    // warm cache. An unparsable spec falls back to listed order and
    // lets the daemon produce the real diagnostic.
    std::vector<std::size_t> order = listedOrder(endpoints.size());
    if (endpoints.size() > 1) {
        service::JobSpec spec;
        std::string spec_error;
        if (service::JobSpec::tryParse(job, true, &spec,
                                       &spec_error)) {
            std::string key = fleet::shardKey(
                spec, service::ServiceConfig::withEnvDefaults().salt);
            order = fleet::failoverOrder(key, endpoints.size());
        }
    }
    std::string chosen;
    service::ServiceClient client =
        connectOrDie(endpoints, order, &chosen);

    util::JsonValue req = util::JsonValue::object();
    req.set("op", util::JsonValue::string("submit"));
    if (!who.empty())
        req.set("client", util::JsonValue::string(who));
    req.set("wait", util::JsonValue::boolean(wait));
    req.set("job", std::move(job));
    util::JsonValue response = callOrDie(client, req);
    if (endpoints.size() > 1 && !text)
        response.set("endpoint", util::JsonValue::string(chosen));
    printResponse(response, text);
    return 0;
}

/** Poll until the job leaves the pool, reporting state changes. */
int
cmdStream(service::ServiceClient &client, std::uint64_t id,
          std::uint64_t interval_ms)
{
    std::string last_state;
    for (;;) {
        util::JsonValue req = util::JsonValue::object();
        req.set("op", util::JsonValue::string("poll"));
        req.set("id", util::JsonValue::integer(id));
        util::JsonValue response = callOrDie(client, req);
        std::vector<std::string> errors;
        std::string state = response.getString("state", "?", &errors);
        if (state != last_state) {
            std::cerr << "job " << id << ": " << state << "\n";
            last_state = state;
        }
        if (state != "queued" && state != "running") {
            printResponse(response, false);
            return state == "done" ? 0 : 1;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> endpoints;
    int i = 1;
    while (i < argc) {
        std::string arg = argv[i];
        if (arg == "--endpoint") {
            if (i + 1 >= argc)
                fatal("--endpoint needs a value");
            endpoints.push_back(argv[i + 1]);
            i += 2;
        } else if (arg == "--service") {
            if (i + 1 >= argc)
                fatal("--service needs a value");
            for (std::string &endpoint :
                 service::splitEndpointList(argv[i + 1]))
                endpoints.push_back(std::move(endpoint));
            i += 2;
        } else {
            break;
        }
    }
    if (endpoints.empty())
        endpoints.push_back("ringsim.sock");
    if (i >= argc) {
        usage();
        return 2;
    }
    std::string cmd = argv[i++];
    if (cmd == "--help" || cmd == "-h") {
        usage();
        return 0;
    }

    if (cmd == "submit")
        return cmdSubmit(endpoints, argc, argv, i);

    std::string chosen;
    service::ServiceClient client = connectOrDie(
        endpoints, listedOrder(endpoints.size()), &chosen);
    if (cmd == "ping" || cmd == "statsz" || cmd == "shutdown") {
        util::JsonValue req = util::JsonValue::object();
        req.set("op", util::JsonValue::string(cmd));
        printResponse(callOrDie(client, req), false);
        return 0;
    }
    if (cmd == "poll" || cmd == "cancel" || cmd == "stream") {
        if (i >= argc)
            fatal("%s needs a job id", cmd.c_str());
        std::uint64_t id =
            std::strtoull(argv[i++], nullptr, 10);
        if (cmd == "poll" || cmd == "cancel") {
            util::JsonValue req = util::JsonValue::object();
            req.set("op", util::JsonValue::string(cmd));
            req.set("id", util::JsonValue::integer(id));
            printResponse(callOrDie(client, req), false);
            return 0;
        }
        std::uint64_t interval_ms = 200;
        if (i < argc && std::string(argv[i]) == "--interval-ms") {
            if (i + 1 >= argc)
                fatal("--interval-ms needs a value");
            interval_ms = std::strtoull(argv[i + 1], nullptr, 10);
        }
        return cmdStream(client, id, interval_ms);
    }
    fatal("unknown command '%s' (try --help)", cmd.c_str());
}
