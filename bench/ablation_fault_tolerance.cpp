/**
 * @file
 * Fault-tolerance ablation: graceful degradation of the slotted ring
 * under injected faults.
 *
 * The paper's ring is ideal — no slot is ever lost. This sweep
 * measures how much headroom the protocols have when that assumption
 * is relaxed: corruption/drop rates from 0 (the paper's baseline)
 * through 1e-4 per occupied slot per ring cycle, on the busiest SPLASH
 * configuration (MP3D). Reported per point: the usual utilization and
 * latency columns plus the recovery counters (retries, recovered
 * transactions, fatal transactions, NACKs, watchdog timeouts).
 *
 * The rate-0 row is byte-identical to the same run without the fault
 * subsystem; the fault schedule is a pure function of --fault-seed, so
 * the whole table is independent of --jobs.
 *
 * Each sweep point catches its own exception: a point that throws
 * prints a "failed" row, its error goes to stderr, and the bench exits
 * 1 once the whole table is out. No point can hang: the fault
 * subsystem bounds every recovery in simulated time.
 */

#include <functional>
#include <iostream>

#include "bench/common.hpp"
#include "core/system.hpp"
#include "runner/experiment_runner.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

using namespace ringsim;

namespace {

struct Variant
{
    trace::WorkloadConfig wl;
    std::string label;
    double faultRate;
    double stallRate;
    core::ProtocolKind kind;
};

core::RunResult
runRing(const Variant &v, const bench::Options &opt)
{
    core::RingSystemConfig cfg =
        core::RingSystemConfig::forProcs(v.wl.procs, 2000);
    cfg.common.faults = opt.faults;
    cfg.common.faults.corruptRate = v.faultRate;
    cfg.common.faults.dropRate = v.faultRate;
    cfg.common.faults.stallRate = v.stallRate;
    return core::runRingSystem(cfg, v.wl, v.kind);
}

/** One sweep point's outcome; a non-empty error marks it failed. */
struct Point
{
    core::RunResult result;
    std::string error;
};

Point
runPoint(const Variant &v, const bench::Options &opt)
{
    Point p;
    try {
        p.result = runRing(v, opt);
    } catch (const std::exception &e) {
        p.error = e.what();
    }
    return p;
}

void
addRow(TextTable &table, const Variant &v, const Point &p)
{
    if (!p.error.empty()) {
        table.addRow({v.wl.displayName(), v.label, "failed", "-", "-",
                      "-", "-", "-", "-", "-"});
        return;
    }
    const core::RunResult &r = p.result;
    table.addRow({v.wl.displayName(), v.label,
                  fmtPercent(r.procUtilization, 1),
                  fmtPercent(r.networkUtilization, 1),
                  fmtDouble(r.missLatencyNs, 0),
                  std::to_string(r.faultsInjected),
                  std::to_string(r.retries),
                  std::to_string(r.recovered),
                  std::to_string(r.fatalTxns),
                  std::to_string(r.timeouts)});
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);

    TextTable table({"workload", "variant", "proc util %", "net util %",
                     "miss lat (ns)", "faults", "retries", "recovered",
                     "fatal", "timeouts"});

    std::vector<Variant> variants;
    for (core::ProtocolKind kind : {core::ProtocolKind::RingSnoop,
                                    core::ProtocolKind::RingDirectory}) {
        trace::WorkloadConfig wl =
            trace::workloadPreset(trace::Benchmark::MP3D, 16);
        opt.apply(wl);
        const char *proto =
            kind == core::ProtocolKind::RingSnoop ? "snoop" : "directory";
        variants.push_back(
            {wl, std::string(proto) + ", fault rate 0", 0.0, 0.0, kind});
        for (double rate : {1e-6, 1e-5, 1e-4}) {
            variants.push_back({wl,
                                strprintf("%s, fault rate %.0e", proto,
                                          rate),
                                rate, 0.0, kind});
        }
        variants.push_back({wl, std::string(proto) + ", stalls 1e-4",
                            0.0, 1e-4, kind});
    }

    std::vector<std::function<Point()>> tasks;
    for (const Variant &v : variants)
        tasks.push_back([&v, &opt]() { return runPoint(v, opt); });
    std::vector<Point> points = runner::runAll(std::move(tasks), opt.jobs);

    bool all_ok = true;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        addRow(table, variants[i], points[i]);
        if (!points[i].error.empty()) {
            std::cerr << variants[i].label << ": " << points[i].error
                      << "\n";
            all_ok = false;
        }
    }

    bench::emit(opt,
                "Fault-tolerance ablation (injected corruption, drops, "
                "stalls)",
                table);
    return all_ok ? 0 : 1;
}
