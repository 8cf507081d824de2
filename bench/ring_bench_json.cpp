/**
 * @file
 * Machine-readable perf trajectory for the ring tick path.
 *
 * Runs the ring-tick microbenchmarks (this binary links only
 * ring_ticks.cpp, so no filter is needed) and writes a flat JSON map
 * of benchmark name → items_per_second to BENCH_ring.json (or the
 * path given as the first argument). If the output file already
 * exists, its rates become the baseline for a trailing
 * "saturated_multiplier" block: fresh/baseline speedup for every
 * saturated schedule-driven config (BM_RingTick occ:50/occ:100,
 * ref:0), plus their minimum. Regenerating over the committed file
 * therefore records the speedup against the last committed
 * trajectory point. The CI perf-smoke job regenerates the file and
 * runs scripts/perf_smoke.py against the committed copy; the JSON
 * artifact is uploaded either way.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/logging.hpp"

namespace {

/** Console output for humans, plus a name → rate capture for JSON. */
class RateCapturingReporter : public benchmark::ConsoleReporter
{
  public:
    std::map<std::string, double> rates;

    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            auto it = run.counters.find("items_per_second");
            if (it != run.counters.end())
                rates[run.benchmark_name()] = it->second.value;
        }
        ConsoleReporter::ReportRuns(runs);
    }
};

/**
 * Top-level "name": rate members of a previously written
 * BENCH_ring.json (nested blocks such as saturated_multiplier are
 * not rates and are skipped). Empty map if the file is absent; an
 * unparsable file warns and reads as empty too.
 */
std::map<std::string, double>
readBaseline(const char *path)
{
    std::map<std::string, double> rates;
    std::ifstream in(path);
    if (!in)
        return rates;
    std::ostringstream text;
    text << in.rdbuf();
    ringsim::util::JsonValue doc;
    std::string error = "not a JSON object";
    if (!ringsim::util::tryParseJson(text.str(), &doc, &error) ||
        !doc.isObject()) {
        ringsim::warn("%s: unreadable baseline (%s); ignoring it", path,
                      error.c_str());
        return rates;
    }
    for (const auto &[name, value] : doc.members())
        if (value.isNumber())
            rates[name] = value.asNumber();
    return rates;
}

/** The configs the tentpole speedup target is stated over. */
bool
isSaturatedFastConfig(const std::string &name)
{
    return name.rfind("BM_RingTick/", 0) == 0 &&
           (name.find("/occ:50/") != std::string::npos ||
            name.find("/occ:100/") != std::string::npos) &&
           name.find("ref:0") != std::string::npos;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    const char *out_path = argc > 1 ? argv[1] : "BENCH_ring.json";

    std::map<std::string, double> baseline = readBaseline(out_path);

    RateCapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    // Speedup of each saturated schedule-driven config against the
    // rates the output file held before this run.
    std::map<std::string, double> multipliers;
    for (const auto &[name, rate] : reporter.rates) {
        if (!isSaturatedFastConfig(name))
            continue;
        auto it = baseline.find(name);
        if (it != baseline.end() && it->second > 0)
            multipliers[name] = rate / it->second;
    }

    std::FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    size_t i = 0;
    const bool trailer = !multipliers.empty();
    for (const auto &[name, rate] : reporter.rates) {
        bool last = ++i == reporter.rates.size() && !trailer;
        std::fprintf(out, "  \"%s\": %.6g%s\n",
                     ringsim::util::jsonEscape(name).c_str(), rate,
                     last ? "" : ",");
    }
    if (trailer) {
        double min_mult = 0;
        std::fprintf(out, "  \"saturated_multiplier\": {\n");
        for (const auto &[name, mult] : multipliers) {
            if (min_mult == 0 || mult < min_mult)
                min_mult = mult;
            std::fprintf(out, "    \"%s\": %.4g,\n",
                         ringsim::util::jsonEscape(name).c_str(), mult);
        }
        std::fprintf(out, "    \"min\": %.4g\n  }\n", min_mult);
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::fprintf(stderr, "wrote %zu rates to %s\n", reporter.rates.size(),
                 out_path);
    return 0;
}
