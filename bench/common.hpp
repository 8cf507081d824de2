/**
 * @file
 * Shared helpers for the experiment (bench) binaries.
 *
 * Every bench reproduces one table or figure of the paper: it prints
 * the paper's reference values next to ringsim's measured values, as
 * an aligned text table (default) or CSV (--csv). Common flags:
 *
 *   --refs N    data references per processor (default 120000)
 *   --seed S    master workload seed
 *   --csv       emit CSV instead of the text table
 *   --fast      quarter-length traces (quick shape check)
 *   --jobs N    worker threads for the experiment sweep (default:
 *               $RINGSIM_JOBS, else all hardware threads; 1 = serial)
 *
 * Results are independent of --jobs: every job is self-contained and
 * result slots are ordered by submission, so parallel and serial runs
 * emit byte-identical tables.
 */

#ifndef RINGSIM_BENCH_COMMON_HPP
#define RINGSIM_BENCH_COMMON_HPP

#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "figures/figures.hpp"
#include "trace/workload.hpp"
#include "util/table.hpp"

namespace ringsim::bench {

/** Parsed common options. */
struct Options
{
    Count refs = 120'000;
    std::uint64_t seed = 12345;
    bool csv = false;
    bool fast = false;
    unsigned jobs = 0; //!< sweep worker threads; 0 = auto

    /**
     * Fault injection (--fault-rate R --fault-seed S --fault-stalls R):
     * rate R applies to both corruption and drops. All zero (the
     * default) leaves every bench fault-free and byte-identical to
     * builds without the fault subsystem.
     */
    fault::FaultConfig faults;

    /**
     * Experiment-service endpoint (--service tcp:PORT|unix:PATH|PATH).
     * When set, the figure benches submit their sweep to a
     * ringsim_serve daemon instead of computing locally; the daemon
     * runs the identical figures:: sweep, so the printed bytes match
     * a local run (and a warm daemon answers from its cache).
     */
    std::string service;

    /** Apply refs/seed/fast to a workload preset (as FigureOptions). */
    void apply(trace::WorkloadConfig &cfg) const;

    /** The figure-library view of these options. */
    figures::FigureOptions figureOptions() const;
};

/** Parse the common flags; fatal()s on unknown arguments. */
Options parseOptions(int argc, char **argv);

/** Print @p table as text or CSV per @p opt, with a title line. */
void emit(const Options &opt, const std::string &title,
          const TextTable &table);

/**
 * Run figure @p id under @p opt and print the output — locally, or
 * through the daemon named by --service. Returns the process exit
 * code (a service failure is fatal(); there is no silent fallback,
 * so a benchmark run never mixes the two paths).
 */
int runFigure(figures::FigureId id, const Options &opt,
              bool fig6_cholesky = false);

} // namespace ringsim::bench

#endif // RINGSIM_BENCH_COMMON_HPP
