#include "common.hpp"

#include <cstdlib>
#include <iostream>

#include "service/client.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace ringsim::bench {

void
Options::apply(trace::WorkloadConfig &cfg) const
{
    figureOptions().apply(cfg);
}

figures::FigureOptions
Options::figureOptions() const
{
    figures::FigureOptions fo;
    fo.refs = refs;
    fo.seed = seed;
    fo.fast = fast;
    fo.jobs = jobs;
    fo.faults = faults;
    return fo;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto need_value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--refs") {
            opt.refs = std::strtoull(need_value("--refs").c_str(),
                                     nullptr, 10);
            if (opt.refs == 0)
                fatal("--refs must be positive");
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(need_value("--seed").c_str(),
                                     nullptr, 10);
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--fast") {
            opt.fast = true;
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(need_value("--jobs").c_str(), nullptr, 10));
            if (opt.jobs == 0)
                fatal("--jobs must be positive");
        } else if (arg == "--fault-rate") {
            double rate =
                std::strtod(need_value("--fault-rate").c_str(), nullptr);
            opt.faults.corruptRate = rate;
            opt.faults.dropRate = rate;
        } else if (arg == "--fault-stalls") {
            opt.faults.stallRate = std::strtod(
                need_value("--fault-stalls").c_str(), nullptr);
        } else if (arg == "--fault-seed") {
            opt.faults.seed = std::strtoull(
                need_value("--fault-seed").c_str(), nullptr, 10);
        } else if (arg == "--service") {
            opt.service = need_value("--service");
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "flags: --refs N  --seed S  --csv  --fast  "
                         "--jobs N  --fault-rate R  --fault-stalls R  "
                         "--fault-seed S  --service ENDPOINT\n";
            std::exit(0);
        } else {
            fatal("unknown flag '%s' (try --help)", arg.c_str());
        }
    }
    opt.faults.validate();
    return opt;
}

void
emit(const Options &opt, const std::string &title,
     const TextTable &table)
{
    if (opt.csv) {
        table.printCsv(std::cout);
        return;
    }
    std::cout << "\n== " << title << " ==\n";
    table.print(std::cout);
}

namespace {

/** The sweep-job request a figure bench submits to the daemon. */
util::JsonValue
sweepRequest(figures::FigureId id, const Options &opt,
             bool fig6_cholesky)
{
    util::JsonValue job = util::JsonValue::object();
    job.set("type", util::JsonValue::string("sweep"));
    job.set("figure",
            util::JsonValue::string(figures::figureName(id)));
    job.set("csv", util::JsonValue::boolean(opt.csv));
    job.set("cholesky", util::JsonValue::boolean(fig6_cholesky));
    job.set("refs", util::JsonValue::integer(opt.refs));
    job.set("seed", util::JsonValue::integer(opt.seed));
    job.set("fast", util::JsonValue::boolean(opt.fast));
    if (opt.faults.enabled()) {
        util::JsonValue f = util::JsonValue::object();
        f.set("corrupt_rate",
              util::JsonValue::number(opt.faults.corruptRate));
        f.set("drop_rate",
              util::JsonValue::number(opt.faults.dropRate));
        f.set("stall_rate",
              util::JsonValue::number(opt.faults.stallRate));
        f.set("stall_cycles",
              util::JsonValue::integer(opt.faults.stallCycles));
        f.set("seed", util::JsonValue::integer(opt.faults.seed));
        job.set("faults", std::move(f));
    }
    util::JsonValue req = util::JsonValue::object();
    req.set("op", util::JsonValue::string("submit"));
    req.set("wait", util::JsonValue::boolean(true));
    req.set("job", std::move(job));
    return req;
}

} // namespace

int
runFigure(figures::FigureId id, const Options &opt, bool fig6_cholesky)
{
    if (opt.service.empty()) {
        std::cout << figures::renderFigure(id, opt.figureOptions(),
                                           opt.csv, fig6_cholesky);
        return 0;
    }
    service::ServiceClient client;
    std::string error;
    if (!client.tryConnect(opt.service, &error))
        fatal("--service %s: %s", opt.service.c_str(), error.c_str());
    util::JsonValue response;
    // Resilient call: a daemon under --chaos may drop or garble the
    // response; the retry must still deliver the byte-identical text.
    if (!client.tryCallResilient(sweepRequest(id, opt, fig6_cholesky),
                                 &response, &error))
        fatal("--service %s: %s", opt.service.c_str(), error.c_str());
    std::vector<std::string> errors;
    std::string state = response.getString("state", "?", &errors);
    if (state != "done")
        fatal("--service %s: job ended %s: %s", opt.service.c_str(),
              state.c_str(),
              response.getString("error", "?", &errors).c_str());
    const util::JsonValue *result = response.find("result");
    const util::JsonValue *text = result ? result->find("text")
                                         : nullptr;
    if (!text || !text->isString())
        fatal("--service %s: response carries no result text",
              opt.service.c_str());
    std::cout << text->asString();
    return 0;
}

} // namespace ringsim::bench
