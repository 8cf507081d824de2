#include "remote_executor.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "figures/figures.hpp"
#include "fleet/shard.hpp"
#include "runner/experiment_runner.hpp"

namespace ringsim::fleet {

namespace {

/** Concurrent part forwards of one split sweep, per worker. */
constexpr std::size_t kFanoutPerWorker = 2;

/** No worker could answer: ServiceCore degrades or sheds. */
struct Unavailable : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/**
 * Counters summed across worker statsz responses into the "totals"
 * section. Fixed allowlist rather than "every numeric member" so a
 * future per-worker gauge (queue_depth, workers) does not silently
 * turn into a nonsense fleet total.
 */
const char *const kSummedCounters[] = {
    "submitted",  "admitted",  "shed",          "completed",
    "failed",     "timed_out", "cache_answers", "cancelled",
    "degraded",   "coalesced", "bad_requests",  "late_completions",
    "deadline_expired",
};

/** The per-part rows of a worker's sweep_part answer, or throw. */
std::vector<figures::FigureRow>
extractPartRows(const util::JsonValue &response, std::size_t part)
{
    const util::JsonValue *result = response.find("result");
    if (result == nullptr || !result->isObject())
        throw std::runtime_error(
            "part " + std::to_string(part) +
            ": worker response has no result object");
    const util::JsonValue *kind = result->find("kind");
    if (kind == nullptr || !kind->isString() ||
        kind->asString() != "sweep_part")
        throw std::runtime_error("part " + std::to_string(part) +
                                 ": result is not a sweep_part");
    const util::JsonValue *rows = result->find("rows");
    if (rows == nullptr || !rows->isArray())
        throw std::runtime_error("part " + std::to_string(part) +
                                 ": sweep_part has no rows array");
    std::vector<figures::FigureRow> out;
    out.reserve(rows->items().size());
    for (const util::JsonValue &jrow : rows->items()) {
        if (!jrow.isArray())
            throw std::runtime_error("part " + std::to_string(part) +
                                     ": row is not an array");
        figures::FigureRow row;
        row.reserve(jrow.items().size());
        for (const util::JsonValue &cell : jrow.items()) {
            if (!cell.isString())
                throw std::runtime_error(
                    "part " + std::to_string(part) +
                    ": row cell is not a string");
            row.push_back(cell.asString());
        }
        out.push_back(std::move(row));
    }
    return out;
}

/**
 * validate() before the WorkerPool touches the endpoint list, so a
 * misconfiguration dies with fatal()'s message instead of a panic.
 */
const FleetConfig &
validated(const FleetConfig &cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

RemoteExecutor::RemoteExecutor(const FleetConfig &cfg, std::string salt)
    : pool_(validated(cfg).workers), salt_(std::move(salt))
{
}

service::Execution
RemoteExecutor::execute(const service::JobSpec &spec,
                        const util::JsonValue &job)
{
    service::Execution out;
    try {
        std::size_t blocks =
            spec.kind == service::JobKind::Sweep && spec.sweepPart < 0
                ? figures::figureBlockCount(spec.figure,
                                            figures::FigureOptions{},
                                            spec.fig6Cholesky)
                : 1;
        if (blocks > 1) {
            out.result = splitSweep(spec, job, blocks).dump();
        } else {
            util::JsonValue reply = forward(job, shardKey(spec, salt_));
            ++forwarded_;
            std::vector<std::string> ignored;
            out.degraded = reply.getBool("degraded", false, &ignored);
            out.result = reply.find("result")->dump();
        }
    } catch (const Unavailable &e) {
        ++unavailable_;
        out.answered = false;
        out.why = e.what();
    }
    return out;
}

util::JsonValue
RemoteExecutor::forward(const util::JsonValue &job,
                        const std::string &shard_key)
{
    util::JsonValue request = util::JsonValue::object();
    request.set("op", util::JsonValue::string("submit"));
    request.set("wait", util::JsonValue::boolean(true));
    request.set("job", job);

    util::JsonValue reply;
    std::size_t worker = 0;
    std::string error;
    if (pool_.tryForward(request, shard_key, &reply, &worker, &error) !=
        ForwardOutcome::Answered)
        throw Unavailable("no worker answered: " + error);

    // An answered failure is deterministic — every worker would say
    // the same — so it fails the job rather than failing over.
    std::vector<std::string> ignored;
    std::string state = reply.getString("state", "", &ignored);
    if (!reply.getBool("ok", false, &ignored) || state != "done" ||
        reply.find("result") == nullptr)
        throw std::runtime_error(
            "worker job " + (state.empty() ? "failed" : state) + ": " +
            reply.getString("error", "no result", &ignored));
    return reply;
}

util::JsonValue
RemoteExecutor::splitSweep(const service::JobSpec &spec,
                           const util::JsonValue &job,
                           std::size_t blocks)
{
    std::vector<std::function<std::vector<figures::FigureRow>()>>
        tasks;
    tasks.reserve(blocks);
    for (std::size_t part = 0; part < blocks; ++part) {
        // The subjob is the client's own job object plus a part
        // index; its shard key is the *part spec's* canonical key,
        // so parts spread across the fleet while repeats of the same
        // part hit the same worker's warm cache.
        util::JsonValue part_job = job;
        part_job.set("part", util::JsonValue::integer(
                                 static_cast<std::uint64_t>(part)));
        service::JobSpec part_spec = spec;
        part_spec.sweepPart = static_cast<std::int64_t>(part);
        tasks.push_back([this, part_job = std::move(part_job),
                         part_key = shardKey(part_spec, salt_), part]() {
            return extractPartRows(forward(part_job, part_key), part);
        });
    }
    std::size_t fanout =
        std::min(kFanoutPerWorker * pool_.size(), blocks);
    std::vector<std::vector<figures::FigureRow>> rows_per_block =
        runner::runAll(std::move(tasks), static_cast<unsigned>(fanout));

    std::string text = figures::assembleFigure(
        spec.figure, service::figureOptionsFor(spec), rows_per_block,
        spec.csv, spec.fig6Cholesky);
    ++sweepSplits_;
    partsForwarded_ += blocks;

    // Same result shape a worker's whole-sweep execution produces,
    // so clients cannot tell (and must not care) whether a sweep was
    // split.
    util::JsonValue result = util::JsonValue::object();
    result.set("kind", util::JsonValue::string("sweep"));
    result.set("figure", util::JsonValue::string(
                             figures::figureName(spec.figure)));
    result.set("text", util::JsonValue::string(std::move(text)));
    return result;
}

void
RemoteExecutor::addStatsz(util::JsonValue *statsz)
{
    std::vector<std::string> ignored;
    statsz->set("role", util::JsonValue::string("fleet"));

    util::JsonValue fleet = util::JsonValue::object();
    fleet.set("workers", util::JsonValue::integer(pool_.size()));
    fleet.set("forwarded", util::JsonValue::integer(forwarded_.load()));
    // Coalescing is ServiceCore's single-flight; mirrored here so the
    // fleet section stays self-contained.
    fleet.set("coalesced", util::JsonValue::integer(statsz->getU64(
                               "coalesced", 0, &ignored)));
    fleet.set("requeues", util::JsonValue::integer(pool_.requeues()));
    fleet.set("sweep_splits",
              util::JsonValue::integer(sweepSplits_.load()));
    fleet.set("parts_forwarded",
              util::JsonValue::integer(partsForwarded_.load()));
    fleet.set("failures", util::JsonValue::integer(unavailable_.load()));
    statsz->set("fleet", std::move(fleet));

    // Per-worker: liveness from the router plus each live worker's
    // own statsz, fetched on this connection's thread.
    util::JsonValue statsz_req = util::JsonValue::object();
    statsz_req.set("op", util::JsonValue::string("statsz"));
    std::vector<WorkerSnapshot> snaps = pool_.snapshot();
    util::JsonValue workers = util::JsonValue::array();
    std::vector<std::uint64_t> sums(std::size(kSummedCounters), 0);
    for (std::size_t i = 0; i < snaps.size(); ++i) {
        util::JsonValue w = util::JsonValue::object();
        w.set("endpoint",
              util::JsonValue::string(snaps[i].endpoint));
        w.set("alive", util::JsonValue::boolean(snaps[i].alive));
        w.set("forwards",
              util::JsonValue::integer(snaps[i].forwards));
        w.set("failures",
              util::JsonValue::integer(snaps[i].failures));
        w.set("sheds", util::JsonValue::integer(snaps[i].sheds));
        if (!snaps[i].lastError.empty())
            w.set("last_error",
                  util::JsonValue::string(snaps[i].lastError));
        util::JsonValue wstats;
        std::string error;
        if (pool_.tryCallWorker(i, statsz_req, &wstats, &error)) {
            for (std::size_t c = 0; c < sums.size(); ++c)
                sums[c] += wstats.getU64(kSummedCounters[c], 0,
                                         &ignored);
            w.set("statsz", std::move(wstats));
        } else {
            w.set("statsz", util::JsonValue::null());
        }
        workers.append(std::move(w));
    }
    util::JsonValue totals = util::JsonValue::object();
    for (std::size_t c = 0; c < sums.size(); ++c)
        totals.set(kSummedCounters[c],
                   util::JsonValue::integer(sums[c]));
    // Replaces ServiceCore's executor-thread count: a coordinator's
    // "workers" are its worker daemons.
    statsz->set("workers", std::move(workers));
    statsz->set("totals", std::move(totals));
}

} // namespace ringsim::fleet
