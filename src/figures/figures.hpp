/**
 * @file
 * The paper's figure sweeps as a library.
 *
 * This module holds the *definitions* of Figures 3, 4 and 6 so that
 * every front end executes the identical sweep:
 *
 *  - the bench binaries (bench/fig3_snoop_vs_dir, ...) for direct
 *    command-line reproduction,
 *  - the experiment service (src/service/), which executes a whole
 *    sweep or one block of it and memoizes the result under a
 *    content-addressed key, and
 *  - the fleet (src/fleet/), which splits a sweep into one part per
 *    block, spreads the parts over workers and reassembles them.
 *
 * A figure is a list of *blocks*, the unit of sweep work. A model
 * block holds every analytic-model series of one workload, so the
 * series share the workload's one coherence census (paper Section
 * 4.0); a sim block holds one timed validation point. Figure 3 has
 * 27 blocks, Figure 4 has 9, and Figure 6 has 18 (27 with CHOLESKY).
 * One function executes a block: renderFigure() runs every block and
 * runFigureBlock() runs one, so a direct run and a split sweep do the
 * same work, and assembleFigure() over the blocks' rows reproduces
 * renderFigure() byte for byte.
 *
 * Fault injection: a non-zero FigureOptions::faults is applied to the
 * *ring sim validation points* (the analytic-model series stay
 * fault-free — the model has no fault dimension). The all-zero
 * default leaves every figure byte-identical to builds without the
 * fault subsystem.
 */

#ifndef RINGSIM_FIGURES_FIGURES_HPP
#define RINGSIM_FIGURES_FIGURES_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "trace/workload.hpp"

namespace ringsim::figures {

/** Processor cycle sweep of the figures, in ns (x axes, 1..20). */
const std::vector<double> &cycleSweepNs();

/**
 * One rendered table row: workload, series, source, cycle (ns),
 * proc util %, net util %, miss lat (ns).
 */
using FigureRow = std::vector<std::string>;

/** Options one figure sweep runs under (a subset of bench flags). */
struct FigureOptions
{
    Count refs = 120'000;       //!< data references per processor
    std::uint64_t seed = 12345; //!< master workload seed
    bool fast = false;          //!< quarter-length traces
    unsigned jobs = 0;          //!< sweep worker threads; 0 = auto
    fault::FaultConfig faults;  //!< applied to sim validation points

    /**
     * Skip the timed sim validation points and emit the analytic
     * model series only. This is the service's degraded answer tier:
     * the model half of a figure costs milliseconds where the sim
     * half costs seconds, at the paper's ~15% accuracy envelope.
     */
    bool modelOnly = false;

    /** Apply refs/seed/fast to a workload preset. */
    void apply(trace::WorkloadConfig &cfg) const;
};

/** The figures this library can build. */
enum class FigureId {
    Fig3, //!< snooping vs directory, SPLASH 8/16/32
    Fig4, //!< snooping vs directory, FFT/WEATHER/SIMPLE at 64
    Fig6, //!< ring (250/500 MHz) vs bus (50/100 MHz)
};

/** "fig3"-style wire name. */
const char *figureName(FigureId id);

/**
 * Parse "fig3"/"fig4"/"fig6". Returns false (leaving @p out alone)
 * on an unknown name.
 */
[[nodiscard]] bool tryFigureFromName(const std::string &name,
                                     FigureId *out);

/** Title line of the figure's emitted table. */
std::string figureTitle(FigureId id);

/**
 * Execute @p id and render the complete bench output (title line plus
 * table, or CSV when @p csv) exactly as the bench binary prints it.
 * Runs every block on opt.jobs workers. Fig6 optionally includes
 * CHOLESKY (the paper omits it for space). This is the unit of work
 * the experiment service caches.
 */
std::string renderFigure(FigureId id, const FigureOptions &opt,
                         bool csv = false, bool fig6_cholesky = false);

/** Block count of @p id under @p opt (the sweep-part index space). */
std::size_t figureBlockCount(FigureId id, const FigureOptions &opt,
                             bool fig6_cholesky = false);

/**
 * Execute block @p block of @p id and return its rows: a model block
 * computes its workload's census and emits every series' rows; a sim
 * block runs its timed point. Under opt.modelOnly a sim block returns
 * no rows but keeps its index. This is the unit of work a fleet
 * worker performs for a sweep-part job. Panics on an out-of-range
 * index — callers validate against figureBlockCount().
 */
std::vector<FigureRow> runFigureBlock(FigureId id,
                                      const FigureOptions &opt,
                                      std::size_t block,
                                      bool fig6_cholesky = false);

/**
 * Render @p rows_per_block (one entry per block, in block order) into
 * the complete bench output. assembleFigure() over runFigureBlock()
 * results equals renderFigure() byte-for-byte, however the blocks
 * were partitioned across workers — the contract that legalizes
 * fleet sweep splitting.
 */
std::string
assembleFigure(FigureId id, const FigureOptions &opt,
               const std::vector<std::vector<FigureRow>> &rows_per_block,
               bool csv = false, bool fig6_cholesky = false);

} // namespace ringsim::figures

#endif // RINGSIM_FIGURES_FIGURES_HPP
