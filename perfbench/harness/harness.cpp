/**
 * @file
 * perfbench_harness: the in-process half of the ringsim benchmark.
 *
 * perfbench/run.py owns the workloads, the daemons and the metrics.
 * This binary makes the calls that need the library or a client fast
 * enough not to dominate a 30 us cache hit:
 *
 *   fig3   render Figure 3 in-process (figures::renderFigure) until
 *          --seconds pass and at least --min-renders renders are done
 *          (0 times only the set-up); with --trace 1 it also builds the figure
 *          block by block (runFigureBlock + assembleFigure) with a
 *          span around every block
 *   probe  time single layers outside any workload: trace drains,
 *          functional censuses, model solves, the ResultCache tiers
 *          and a util::json round trip
 *   serve  warm a ringsim_serve daemon's hot key set, then drive it
 *          with the seeded closed-loop request mix
 *   ping   transport round trips against any daemon
 *   parts  fetch a warm fleet's Figure 3 sweep parts and time
 *          figures::assembleFigure over them
 *
 * Flags are "--name value" pairs. Each subcommand prints progress
 * lines and ends with one JSON object on its own line.
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "figures/figures.hpp"
#include "model/calibration.hpp"
#include "model/ring_model.hpp"
#include "runner/experiment_runner.hpp"
#include "service/job.hpp"
#include "service/result_cache.hpp"
#include "trace/generator.hpp"
#include "util/json.hpp"

#include "line_client.hpp"
#include "spans.hpp"

using namespace ringsim;
using perfbench::Clock;
using perfbench::LineClient;
using perfbench::secondsSince;
using perfbench::SpanLog;
using util::JsonValue;

namespace {

/** Every response must arrive within this, or the run fails. */
constexpr int kRequestTimeoutMs = 60'000;

// serve_mix: 2 closed-loop connections over a 256-key hot set of small
// specs; a tenth of the requests are new specs, a quarter of those sent
// twice at once, and the first 8 new specs are recomputed in-process.
constexpr unsigned kServeConns = 2;
constexpr std::size_t kHotKeys = 256;
constexpr std::uint64_t kSpecRefs = 1000;
constexpr double kMissFrac = 0.10;
constexpr double kDupFrac = 0.25;
constexpr std::size_t kMissSamples = 8;

class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i + 1 < argc; i += 2) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0)
                throw std::runtime_error("expected --flag, got " + key);
            values_[key.substr(2)] = argv[i + 1];
        }
        if (argc % 2 != 0)
            throw std::runtime_error("every flag needs a value");
    }

    std::string str(const std::string &key, const std::string &def) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? def : it->second;
    }

    std::uint64_t u64(const std::string &key, std::uint64_t def) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? def
                                   : std::stoull(it->second, nullptr, 10);
    }

    double num(const std::string &key, double def) const
    {
        auto it = values_.find(key);
        return it == values_.end() ? def : std::stod(it->second);
    }

  private:
    std::map<std::string, std::string> values_;
};

JsonValue
numbers(const std::vector<double> &xs)
{
    JsonValue a = JsonValue::array();
    for (double x : xs)
        a.append(JsonValue::number(x));
    return a;
}

/** Peak resident set of this process, in KiB (VmHWM). */
std::uint64_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    }
    return 0;
}

/**
 * Restart the VmHWM peak at the current resident set, so the next read
 * of peakRssKb() covers only what ran since. False where the kernel
 * does not allow it.
 */
bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    return static_cast<bool>(out);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** splitmix64: seeded, platform-independent request generation. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() { return state_ = mix64(state_); }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

// ---------------------------------------------------------------- fig3

figures::FigureOptions
fig3Options(std::uint64_t seed, unsigned jobs)
{
    figures::FigureOptions opt;
    opt.fast = true;
    opt.seed = seed;
    opt.jobs = jobs;
    return opt;
}

/** The nine Figure 3 workloads, in the order figures::buildFigure uses. */
std::vector<trace::WorkloadConfig>
fig3Workloads(const figures::FigureOptions &opt)
{
    std::vector<trace::WorkloadConfig> out;
    for (trace::Benchmark b : {trace::Benchmark::MP3D,
                               trace::Benchmark::WATER,
                               trace::Benchmark::CHOLESKY}) {
        for (unsigned procs : {8u, 16u, 32u}) {
            trace::WorkloadConfig wl = trace::workloadPreset(b, procs);
            opt.apply(wl);
            out.push_back(wl);
        }
    }
    return out;
}

/** "series", "snoop" or "directory", read off a block's own rows. */
std::string
blockKind(const std::vector<figures::FigureRow> &rows)
{
    if (rows.empty())
        return "empty";
    if (rows[0][2] != "sim")
        return "series";
    return rows[0][1] == "snooping" ? "snoop" : "directory";
}

/**
 * Build Figure 3 the way a fleet does — every block a separate
 * runFigureBlock call, then assembleFigure — with a span per block.
 */
std::string
tracedFig3(const figures::FigureOptions &opt, SpanLog &spans)
{
    const figures::FigureId fig = figures::FigureId::Fig3;
    std::uint64_t sweep = spans.newId();
    Clock::time_point s0 = Clock::now();
    std::size_t n = figures::figureBlockCount(fig, opt);
    std::vector<std::function<std::vector<figures::FigureRow>()>> tasks;
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([&opt, &spans, sweep, fig, i]() {
            Clock::time_point b0 = Clock::now();
            std::vector<figures::FigureRow> rows =
                figures::runFigureBlock(fig, opt, i);
            Clock::time_point b1 = Clock::now();
            JsonValue attrs = JsonValue::object();
            attrs.set("block", JsonValue::integer(i));
            attrs.set("kind", JsonValue::string(blockKind(rows)));
            attrs.set("workload",
                      JsonValue::string(rows.empty() ? "" : rows[0][0]));
            spans.record(spans.newId(), sweep, "figures.block", b0, b1,
                         std::move(attrs));
            return rows;
        });
    }
    std::vector<std::vector<figures::FigureRow>> rows =
        runner::runAll(std::move(tasks), opt.jobs);
    Clock::time_point a0 = Clock::now();
    std::string text = figures::assembleFigure(fig, opt, rows);
    spans.record(spans.newId(), sweep, "figures.assemble", a0, Clock::now());
    JsonValue attrs = JsonValue::object();
    attrs.set("jobs", JsonValue::integer(opt.jobs));
    spans.record(sweep, 0, "fig3.sweep", s0, Clock::now(), std::move(attrs));
    return text;
}

int
cmdFig3(const Args &a)
{
    figures::FigureOptions opt = fig3Options(
        a.u64("seed", 1), static_cast<unsigned>(a.u64("jobs", 4)));
    const double seconds = a.num("seconds", 10);
    const std::size_t min_renders = a.u64("min-renders", 1);
    const bool traced = a.u64("trace", 0) != 0;
    const std::string out = a.str("out", ".");

    // Set-up: one small render starts the runner's threads and faults
    // in code and allocator arenas before anything is timed.
    figures::FigureOptions warm = opt;
    warm.refs = 4000;
    (void)figures::renderFigure(figures::FigureId::Fig3, warm);
    std::printf("ready\n");
    std::fflush(stdout);

    SpanLog spans;
    std::vector<double> renders, traced_s, render_rss_kb;
    std::string first;
    std::uint64_t mismatches = 0;
    auto check = [&](const std::string &text) {
        if (first.empty())
            first = text;
        else if (text != first)
            ++mismatches;
    };
    Clock::time_point start = Clock::now();
    while (renders.size() < min_renders || secondsSince(start) < seconds) {
        // Per-render peaks: the lifetime peak of a multi-render run
        // depends on which heavy blocks happened to overlap once.
        bool reset = resetPeakRss();
        Clock::time_point r0 = Clock::now();
        check(figures::renderFigure(figures::FigureId::Fig3, opt));
        renders.push_back(secondsSince(r0));
        if (reset)
            render_rss_kb.push_back(static_cast<double>(peakRssKb()));
        if (traced) {
            Clock::time_point t0 = Clock::now();
            check(tracedFig3(opt, spans));
            traced_s.push_back(secondsSince(t0));
        }
    }

    if ((!first.empty() && !writeFile(out + "/fig3.txt", first)) ||
        (traced && !spans.writeTo(out + "/spans.json")))
        throw std::runtime_error("cannot write under " + out);
    JsonValue r = JsonValue::object();
    r.set("renders_s", numbers(renders));
    r.set("traced_s", numbers(traced_s));
    r.set("mismatches", JsonValue::integer(mismatches));
    r.set("peak_rss_kb", JsonValue::integer(peakRssKb()));
    r.set("render_rss_kb", numbers(render_rss_kb));
    std::printf("%s\n", r.dump().c_str());
    return 0;
}

// --------------------------------------------------------------- probe

/** A run-result-sized value, as the service caches them. */
std::string
cacheValue(std::uint64_t i)
{
    JsonValue o = JsonValue::object();
    o.set("kind", JsonValue::string("run"));
    o.set("index", JsonValue::integer(i));
    for (const char *f : {"proc_util", "net_util", "miss_lat_ns",
                          "miss_lat_all_ns", "upgrade_lat_ns",
                          "acquire_wait_ns"})
        o.set(f, JsonValue::number(static_cast<double>(mix64(i) % 100000) /
                                   7.0));
    for (const char *f : {"window", "local_misses", "clean_miss1",
                          "dirty_miss1", "miss2", "upgrades", "retries"})
        o.set(f, JsonValue::integer(mix64(i + 1) % 1000000));
    return o.dump();
}

JsonValue
probeCache(const std::string &dir)
{
    constexpr std::size_t kMem = 64, kKeys = 256, kRounds = 20;
    service::ResultCache cache(kMem, dir);
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < kKeys; ++i) {
        char key[33];
        std::snprintf(key, sizeof(key), "%016" PRIx64 "%016" PRIx64,
                      mix64(i), mix64(i + kKeys));
        keys.emplace_back(key);
    }
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kKeys; ++i)
        cache.put(keys[i], cacheValue(i));
    double put_us = secondsSince(t0) * 1e6 / kKeys;

    // The newest kMem keys are resident; read them round-robin.
    std::size_t bad = 0;
    t0 = Clock::now();
    for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t i = kKeys - kMem; i < kKeys; ++i)
            bad += cache.get(keys[i]) ? 0 : 1;
    }
    double mem_us = secondsSince(t0) * 1e6 / (kRounds * kMem);

    // Reading the oldest keys in insertion order: each is on disk only,
    // and its promotion evicts a key that is read later or never.
    const std::size_t disk_reads = kKeys - kMem;
    service::CacheStats before = cache.stats();
    t0 = Clock::now();
    for (std::size_t i = 0; i < disk_reads; ++i) {
        std::optional<std::string> v = cache.get(keys[i]);
        bad += v && *v == cacheValue(i) ? 0 : 1;
    }
    double disk_us = secondsSince(t0) * 1e6 / disk_reads;
    service::CacheStats after = cache.stats();

    JsonValue o = JsonValue::object();
    o.set("put_us", JsonValue::number(put_us));
    o.set("mem_get_us", JsonValue::number(mem_us));
    o.set("disk_get_us", JsonValue::number(disk_us));
    o.set("disk_hits",
          JsonValue::integer(after.diskHits - before.diskHits));
    o.set("disk_reads", JsonValue::integer(disk_reads));
    o.set("bad", JsonValue::integer(bad));
    return o;
}

/** A fleet sweep-part response: what a coordinator parses per part. */
std::string
sampleResponse()
{
    JsonValue rows = JsonValue::array();
    for (int i = 0; i < 12; ++i) {
        JsonValue row = JsonValue::array();
        for (const char *cell : {"CHOLESKY 32", "directory", "model", "12",
                                 "70.4", "9.8", "309"})
            row.append(JsonValue::string(cell));
        rows.append(std::move(row));
    }
    JsonValue result = JsonValue::object();
    result.set("kind", JsonValue::string("sweep_part"));
    result.set("figure", JsonValue::string("fig3"));
    result.set("part", JsonValue::integer(7));
    result.set("rows", std::move(rows));
    JsonValue o = JsonValue::object();
    o.set("ok", JsonValue::boolean(true));
    o.set("op", JsonValue::string("submit"));
    o.set("id", JsonValue::integer(4242));
    o.set("state", JsonValue::string("done"));
    o.set("cached", JsonValue::boolean(true));
    o.set("key", JsonValue::string("0123456789abcdef0123456789abcdef"));
    o.set("result", std::move(result));
    return o.dump();
}

JsonValue
probeJson()
{
    constexpr int kRounds = 4000;
    const std::string text = sampleResponse();
    std::size_t bad = 0;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
        JsonValue v;
        std::string error;
        if (!util::tryParseJson(text, &v, &error) || v.dump() != text)
            ++bad;
    }
    JsonValue o = JsonValue::object();
    o.set("roundtrip_us",
          JsonValue::number(secondsSince(t0) * 1e6 / kRounds));
    o.set("bytes", JsonValue::integer(text.size()));
    o.set("bad", JsonValue::integer(bad));
    return o;
}

int
cmdProbe(const Args &a)
{
    figures::FigureOptions opt = fig3Options(a.u64("seed", 1), 1);
    const std::string out = a.str("out", ".");
    SpanLog spans;
    double sink = 0;
    for (const trace::WorkloadConfig &wl : fig3Workloads(opt)) {
        const std::string name = wl.displayName();
        std::uint64_t root = spans.newId();
        Clock::time_point w0 = Clock::now();

        Clock::time_point t0 = Clock::now();
        trace::AddressMap map = trace::makeAddressMap(wl);
        trace::TraceSet set = trace::makeTraceSet(wl, map);
        trace::TraceRecord rec;
        Count records = 0;
        for (auto &stream : set) {
            while (stream->next(rec))
                ++records;
        }
        JsonValue attrs = JsonValue::object();
        attrs.set("workload", JsonValue::string(name));
        attrs.set("records", JsonValue::integer(records));
        spans.record(spans.newId(), root, "trace.generate", t0, Clock::now(),
                     attrs);

        t0 = Clock::now();
        coherence::Census census = model::calibrate(wl);
        spans.record(spans.newId(), root, "coherence.census", t0,
                     Clock::now(), attrs);

        t0 = Clock::now();
        Count solves = 0;
        for (model::RingProtocol p : {model::RingProtocol::Snoop,
                                      model::RingProtocol::Directory}) {
            for (double cycle_ns : figures::cycleSweepNs()) {
                model::RingModelInput in;
                in.census = census;
                in.ring =
                    core::RingSystemConfig::forProcs(wl.procs, 2000).ring;
                in.system.procCycle = nsToTicks(cycle_ns);
                in.protocol = p;
                sink += model::solveRing(in).missLatencyNs;
                ++solves;
            }
        }
        JsonValue solve_attrs = JsonValue::object();
        solve_attrs.set("workload", JsonValue::string(name));
        solve_attrs.set("solves", JsonValue::integer(solves));
        spans.record(spans.newId(), root, "model.solve", t0, Clock::now(),
                     std::move(solve_attrs));
        spans.record(root, 0, "probe.workload", w0, Clock::now(), attrs);
    }

    JsonValue r = JsonValue::object();
    r.set("cache", probeCache(out + "/cache_probe"));
    r.set("json", probeJson());
    r.set("sink", JsonValue::number(sink));
    if (!spans.writeTo(out + "/probe_spans.json"))
        throw std::runtime_error("cannot write under " + out);
    std::printf("%s\n", r.dump().c_str());
    return 0;
}

// --------------------------------------------------------------- serve

const char *const kBenchmarks[] = {"mp3d", "water", "cholesky"};

/**
 * The @p i-th spec of a stratified stream: i cycles through every
 * (benchmark, procs, protocol) combination, so any seed's specs cost
 * the same on average; the seed only draws each spec's workload seed
 * (and, for a model job, its cycle time).
 */
JsonValue
jobSpec(bool model, std::uint64_t i, Rng &rng)
{
    JsonValue job = JsonValue::object();
    job.set("type", JsonValue::string(model ? "model" : "run"));
    job.set("benchmark", JsonValue::string(kBenchmarks[i % 3]));
    job.set("procs", JsonValue::integer((i / 3) % 2 ? 16 : 8));
    job.set("protocol",
            JsonValue::string((i / 6) % 2 ? "directory" : "snoop"));
    job.set("refs", JsonValue::integer(kSpecRefs));
    job.set("seed", JsonValue::integer(rng.next() >> 12));
    if (model) {
        const std::vector<double> &sweep = figures::cycleSweepNs();
        job.set("cycle_ns",
                JsonValue::number(sweep[rng.below(sweep.size())]));
    }
    return job;
}

std::string
submitLine(const JsonValue &job, const std::string &client)
{
    JsonValue req = JsonValue::object();
    req.set("op", JsonValue::string("submit"));
    req.set("client", JsonValue::string(client));
    req.set("wait", JsonValue::boolean(true));
    req.set("job", job);
    return req.dump();
}

/**
 * Check one submit response; on success return the result object's
 * bytes in @p result and whether the cache answered in @p cached.
 */
bool
parseAnswer(const std::string &line, std::string *result, bool *cached,
            std::string *error)
{
    JsonValue v;
    if (!util::tryParseJson(line, &v, error))
        return false;
    std::vector<std::string> errors;
    if (!v.getBool("ok", false, &errors) ||
        v.getString("state", "", &errors) != "done" ||
        v.find("result") == nullptr) {
        *error = "not done: " + line.substr(0, 200);
        return false;
    }
    *cached = v.getBool("cached", false, &errors);
    *result = v.find("result")->dump();
    return true;
}

struct MissSample
{
    std::string job;    //!< the job object's bytes
    std::string result; //!< the daemon's answer
    double ms = 0;      //!< request latency
};

struct ConnResult
{
    std::vector<double> hit_ms, miss_ms;
    std::uint64_t attempted = 0, failed = 0, shed = 0, timeouts = 0,
                  mismatches = 0, dups = 0, cache_misses_on_hot = 0;
    std::vector<MissSample> samples;
    std::string last_error;
};

/** Zipf(1) over @p n keys: cumulative weights for inverse sampling. */
std::vector<double>
zipfCdf(std::size_t n)
{
    std::vector<double> cdf(n);
    double total = 0;
    for (std::size_t k = 0; k < n; ++k)
        cdf[k] = total += 1.0 / static_cast<double>(k + 1);
    for (double &c : cdf)
        c /= total;
    return cdf;
}

void
recordFailure(ConnResult &r, const std::string &error)
{
    ++r.failed;
    if (error.find("timed out") != std::string::npos)
        ++r.timeouts;
    if (error.find("overloaded") != std::string::npos)
        ++r.shed;
    r.last_error = error;
}

int
cmdServe(const Args &a)
{
    const std::string endpoint = a.str("endpoint", "serve.sock");
    const std::uint64_t seed = a.u64("seed", 1);
    const double seconds = a.num("seconds", 10);
    const bool warm_only = a.u64("warm-only", 0) != 0;

    // Hot key set: (run, model at 20 ns) pairs of one configuration,
    // so the served answers also give the model's error.
    std::vector<std::string> hot_lines;
    for (std::size_t i = 0; i < kHotKeys / 2; ++i) {
        Rng rng(mix64(seed) ^ mix64(i));
        JsonValue run = jobSpec(false, i, rng);
        JsonValue model = run;
        model.set("type", JsonValue::string("model"));
        model.set("cycle_ns", JsonValue::number(20));
        hot_lines.push_back(submitLine(run, "warm"));
        hot_lines.push_back(submitLine(model, "warm"));
    }

    // Warm: every hot key computed once, spread over the connections.
    std::vector<std::string> answers(hot_lines.size());
    std::atomic<std::uint64_t> warm_failed{0};
    std::string warm_error;
    std::mutex warm_mutex;
    Clock::time_point w0 = Clock::now();
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kServeConns; ++c) {
            threads.emplace_back([&, c]() {
                LineClient client;
                std::string error, line;
                bool cached = false;
                bool up = client.connect(endpoint, &error);
                for (std::size_t k = c; k < hot_lines.size(); k += kServeConns) {
                    if (!up || !client.call(hot_lines[k], &line,
                                            kRequestTimeoutMs, &error) ||
                        !parseAnswer(line, &answers[k], &cached, &error)) {
                        ++warm_failed;
                        std::lock_guard<std::mutex> lock(warm_mutex);
                        warm_error = error;
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double warm_s = secondsSince(w0);
    std::printf("warmed %zu keys in %.3f s\n", hot_lines.size(), warm_s);
    std::fflush(stdout);

    JsonValue r = JsonValue::object();
    r.set("warm_s", JsonValue::number(warm_s));
    r.set("warm_failed", JsonValue::integer(warm_failed.load()));
    r.set("warm_error", JsonValue::string(warm_error));
    JsonValue pairs = JsonValue::array();
    for (std::size_t k = 0; k + 1 < answers.size(); k += 2) {
        JsonValue run, model;
        std::string error;
        if (!util::tryParseJson(answers[k], &run, &error) ||
            !util::tryParseJson(answers[k + 1], &model, &error))
            continue;
        std::vector<std::string> errors;
        JsonValue pair = JsonValue::array();
        pair.append(JsonValue::number(
            run.getNumber("miss_lat_ns", 0, &errors)));
        pair.append(JsonValue::number(
            model.getNumber("miss_lat_ns", 0, &errors)));
        pairs.append(std::move(pair));
    }
    r.set("pairs", std::move(pairs));
    if (warm_only || warm_failed.load() != 0) {
        std::printf("%s\n", r.dump().c_str());
        return 0;
    }

    // Load: a closed loop per connection. Each request is a Zipf-drawn
    // hot key or, with miss_frac, a spec never sent before; some of
    // those go out twice at once on a second socket so the daemon's
    // single-flight coalescing is on the measured path.
    const std::vector<double> cdf = zipfCdf(hot_lines.size());
    std::atomic<std::uint64_t> next_miss{0};
    std::vector<ConnResult> results(kServeConns);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kServeConns; ++c) {
            threads.emplace_back([&, c]() {
                ConnResult &res = results[c];
                const std::string client_name = "c" + std::to_string(c);
                LineClient main_conn, twin;
                std::string error;
                if (!main_conn.connect(endpoint, &error) ||
                    !twin.connect(endpoint, &error)) {
                    recordFailure(res, error);
                    return;
                }
                Rng rng(mix64(seed + 0x51ed) ^ mix64(c + 1));
                while (Clock::now() < deadline) {
                    std::string line, twin_line, result, twin_result;
                    bool cached = false, twin_cached = false;
                    if (rng.uniform() < kMissFrac) {
                        std::uint64_t m = next_miss++;
                        Rng spec_rng(mix64(seed ^ 0xa11ce) ^ mix64(m));
                        JsonValue job =
                            jobSpec((m / 12) % 2 == 1, m, spec_rng);
                        std::string req = submitLine(job, client_name);
                        bool dup = rng.uniform() < kDupFrac;
                        res.attempted += dup ? 2 : 1;
                        res.dups += dup ? 1 : 0;
                        Clock::time_point t0 = Clock::now();
                        bool ok = main_conn.send(req, &error) &&
                                  (!dup || twin.send(req, &error)) &&
                                  main_conn.receive(&line, kRequestTimeoutMs,
                                                    &error);
                        Clock::time_point t1 = Clock::now();
                        ok = ok &&
                             parseAnswer(line, &result, &cached, &error);
                        if (ok && dup) {
                            ok = twin.receive(&twin_line, kRequestTimeoutMs,
                                              &error) &&
                                 parseAnswer(twin_line, &twin_result,
                                             &twin_cached, &error);
                            if (ok && twin_result != result) {
                                ++res.mismatches;
                                ok = false;
                                error = "coalesced answer differs";
                            }
                        }
                        if (!ok) {
                            recordFailure(res, error);
                            return;
                        }
                        double ms =
                            std::chrono::duration<double, std::milli>(t1 - t0)
                                .count();
                        res.miss_ms.push_back(ms);
                        if (m < kMissSamples)
                            res.samples.push_back({job.dump(), result, ms});
                    } else {
                        double u = rng.uniform();
                        std::size_t k = static_cast<std::size_t>(
                            std::lower_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin());
                        if (k >= cdf.size())
                            k = cdf.size() - 1;
                        ++res.attempted;
                        Clock::time_point t0 = Clock::now();
                        bool ok = main_conn.call(hot_lines[k], &line,
                                                 kRequestTimeoutMs, &error);
                        Clock::time_point t1 = Clock::now();
                        ok = ok &&
                             parseAnswer(line, &result, &cached, &error);
                        if (ok && result != answers[k]) {
                            ++res.mismatches;
                            ok = false;
                            error = "hot key answer differs from its first";
                        }
                        if (!ok) {
                            recordFailure(res, error);
                            return;
                        }
                        res.cache_misses_on_hot += cached ? 0 : 1;
                        res.hit_ms.push_back(
                            std::chrono::duration<double, std::milli>(t1 - t0)
                                .count());
                    }
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double window_s = secondsSince(start);

    ConnResult all;
    for (ConnResult &c : results) {
        all.hit_ms.insert(all.hit_ms.end(), c.hit_ms.begin(), c.hit_ms.end());
        all.miss_ms.insert(all.miss_ms.end(), c.miss_ms.begin(),
                           c.miss_ms.end());
        all.attempted += c.attempted;
        all.failed += c.failed;
        all.shed += c.shed;
        all.timeouts += c.timeouts;
        all.mismatches += c.mismatches;
        all.dups += c.dups;
        all.cache_misses_on_hot += c.cache_misses_on_hot;
        for (MissSample &s : c.samples)
            all.samples.push_back(std::move(s));
        if (!c.last_error.empty())
            all.last_error = c.last_error;
    }

    // A sample of misses recomputed in-process must give the same
    // bytes; the latency difference is what the service layers add.
    std::vector<double> exec_ms, overhead_ms;
    std::uint64_t sample_bad = 0;
    for (const MissSample &s : all.samples) {
        JsonValue job;
        service::JobSpec spec;
        std::string error;
        if (!util::tryParseJson(s.job, &job, &error) ||
            !service::JobSpec::tryParse(job, false, &spec, &error)) {
            ++sample_bad;
            continue;
        }
        Clock::time_point t0 = Clock::now();
        std::string local = service::executeJob(spec, 1).dump();
        double ms = secondsSince(t0) * 1e3;
        sample_bad += local == s.result ? 0 : 1;
        exec_ms.push_back(ms);
        overhead_ms.push_back(s.ms - ms);
    }

    r.set("window_s", JsonValue::number(window_s));
    r.set("hit_ms", numbers(all.hit_ms));
    r.set("miss_ms", numbers(all.miss_ms));
    r.set("attempted", JsonValue::integer(all.attempted));
    r.set("failed", JsonValue::integer(all.failed));
    r.set("shed", JsonValue::integer(all.shed));
    r.set("timeouts", JsonValue::integer(all.timeouts));
    r.set("mismatches", JsonValue::integer(all.mismatches));
    r.set("dups", JsonValue::integer(all.dups));
    r.set("hot_recomputed", JsonValue::integer(all.cache_misses_on_hot));
    r.set("last_error", JsonValue::string(all.last_error));
    r.set("exec_ms", numbers(exec_ms));
    r.set("overhead_ms", numbers(overhead_ms));
    r.set("sample_bad", JsonValue::integer(sample_bad));
    std::printf("%s\n", r.dump().c_str());
    return 0;
}

// ---------------------------------------------------------------- ping

int
cmdPing(const Args &a)
{
    const std::string endpoint = a.str("endpoint", "serve.sock");
    constexpr std::size_t count = 2000;
    LineClient client;
    std::string error, line;
    std::vector<double> us;
    std::uint64_t failed = 0;
    if (!client.connect(endpoint, &error))
        failed = count;
    for (std::size_t i = 0; failed == 0 && i < count; ++i) {
        Clock::time_point t0 = Clock::now();
        if (!client.call("{\"op\":\"ping\"}", &line, kRequestTimeoutMs,
                         &error) ||
            line.find("\"ok\":true") == std::string::npos) {
            ++failed;
            break;
        }
        us.push_back(secondsSince(t0) * 1e6);
    }
    JsonValue r = JsonValue::object();
    r.set("ping_us", numbers(us));
    r.set("failed", JsonValue::integer(failed));
    r.set("error", JsonValue::string(failed ? error : ""));
    std::printf("%s\n", r.dump().c_str());
    return 0;
}

// --------------------------------------------------------------- parts

int
cmdParts(const Args &a)
{
    const std::string endpoint = a.str("endpoint", "fleet.sock");
    figures::FigureOptions opt = fig3Options(a.u64("seed", 1), 1);
    const std::string expect = readFile(a.str("expect", "fig3.txt"));
    constexpr std::size_t rounds = 20;
    const std::size_t n =
        figures::figureBlockCount(figures::FigureId::Fig3, opt);

    LineClient client;
    std::string error, line;
    std::vector<std::vector<figures::FigureRow>> rows(n);
    std::uint64_t failed = client.connect(endpoint, &error) ? 0 : n;
    for (std::size_t part = 0; failed == 0 && part < n; ++part) {
        JsonValue job = JsonValue::object();
        job.set("type", JsonValue::string("sweep"));
        job.set("figure", JsonValue::string("fig3"));
        job.set("fast", JsonValue::boolean(true));
        job.set("seed", JsonValue::integer(opt.seed));
        job.set("part", JsonValue::integer(part));
        JsonValue v;
        if (!client.call(submitLine(job, "parts"), &line, kRequestTimeoutMs,
                         &error) ||
            !util::tryParseJson(line, &v, &error) || !v.find("result") ||
            !v.find("result")->find("rows")) {
            ++failed;
            break;
        }
        for (const JsonValue &jrow : v.find("result")->find("rows")->items()) {
            figures::FigureRow row;
            for (const JsonValue &cell : jrow.items())
                row.push_back(cell.asString());
            rows[part].push_back(std::move(row));
        }
    }
    std::vector<double> ms;
    bool match = false;
    for (std::size_t i = 0; failed == 0 && i < rounds; ++i) {
        Clock::time_point t0 = Clock::now();
        std::string text =
            figures::assembleFigure(figures::FigureId::Fig3, opt, rows);
        ms.push_back(secondsSince(t0) * 1e3);
        match = text == expect;
    }
    JsonValue r = JsonValue::object();
    r.set("assemble_ms", numbers(ms));
    r.set("parts", JsonValue::integer(n));
    r.set("match", JsonValue::boolean(match));
    r.set("failed", JsonValue::integer(failed));
    r.set("error", JsonValue::string(failed ? error : ""));
    std::printf("%s\n", r.dump().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::map<std::string, std::function<int(const Args &)>> commands =
        {{"fig3", cmdFig3},   {"probe", cmdProbe}, {"serve", cmdServe},
         {"ping", cmdPing},   {"parts", cmdParts}};
    if (argc < 2 || commands.count(argv[1]) == 0) {
        std::fprintf(stderr,
                     "usage: perfbench_harness fig3|probe|serve|ping|parts "
                     "[--flag value]...\n");
        return 2;
    }
    try {
        return commands.at(argv[1])(Args(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
}
