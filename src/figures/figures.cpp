#include "figures.hpp"

#include <functional>
#include <sstream>

#include "core/system.hpp"
#include "model/bus_model.hpp"
#include "model/calibration.hpp"
#include "model/ring_model.hpp"
#include "runner/experiment_runner.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace ringsim::figures {

const std::vector<double> &
cycleSweepNs()
{
    static const std::vector<double> sweep = {1,  2,  3,  4,  5, 6,
                                              8,  10, 12, 14, 16, 20};
    return sweep;
}

void
FigureOptions::apply(trace::WorkloadConfig &cfg) const
{
    cfg.dataRefsPerProc = fast ? refs / 4 : refs;
    cfg.seed = seed;
}

namespace {

/** One series or sim point: a protocol on a ring or bus of a period. */
struct Net
{
    core::ProtocolKind kind; //!< BusSnoop is the bus, else a ring
    Tick period;
    const char *label;
};

/**
 * One unit of sweep work. A model block holds every series of one
 * workload, so they share one census; a sim block holds one timed
 * validation point.
 */
struct Block
{
    trace::WorkloadConfig wl;
    bool sim = false;
    std::vector<Net> nets; //!< the series, or the one sim point
};

/** The blocks of @p id, in output order. */
std::vector<Block>
figureBlocks(FigureId id, const FigureOptions &opt, bool fig6_cholesky)
{
    using core::ProtocolKind;
    using trace::Benchmark;
    const std::vector<Net> snoop_vs_dir = {
        {ProtocolKind::RingSnoop, 2000, "snooping"},
        {ProtocolKind::RingDirectory, 2000, "directory"}};

    std::vector<Benchmark> benchmarks;
    std::vector<unsigned> sizes = {8, 16, 32};
    std::vector<Net> series = snoop_vs_dir;
    std::vector<Net> sims = snoop_vs_dir;
    switch (id) {
      case FigureId::Fig3:
        benchmarks = {Benchmark::MP3D, Benchmark::WATER,
                      Benchmark::CHOLESKY};
        break;
      case FigureId::Fig4:
        benchmarks = {Benchmark::FFT, Benchmark::WEATHER,
                      Benchmark::SIMPLE};
        sizes = {64};
        break;
      case FigureId::Fig6:
        benchmarks = {Benchmark::MP3D, Benchmark::WATER};
        if (fig6_cholesky)
            benchmarks.push_back(Benchmark::CHOLESKY);
        series = {{ProtocolKind::RingSnoop, 2000, "ring 500MHz"},
                  {ProtocolKind::RingSnoop, 4000, "ring 250MHz"},
                  {ProtocolKind::BusSnoop, 10000, "bus 100MHz"},
                  {ProtocolKind::BusSnoop, 20000, "bus 50MHz"}};
        sims = {series[0], series[3]};
        break;
    }

    std::vector<Block> blocks;
    for (Benchmark b : benchmarks) {
        for (unsigned procs : sizes) {
            trace::WorkloadConfig wl = trace::workloadPreset(b, procs);
            opt.apply(wl);
            blocks.push_back({wl, false, series});
            for (const Net &net : sims)
                blocks.push_back({wl, true, {net}});
        }
    }
    return blocks;
}

template <typename Result>
FigureRow
makeRow(const trace::WorkloadConfig &wl, const Net &net,
        const char *source, double cycle_ns, const Result &r)
{
    return {wl.displayName(), net.label, source, fmtDouble(cycle_ns, 0),
            fmtPercent(r.procUtilization, 1),
            fmtPercent(r.networkUtilization, 1),
            fmtDouble(r.missLatencyNs, 0)};
}

model::ModelResult
solveModel(const trace::WorkloadConfig &wl,
           const coherence::Census &census, const Net &net,
           double cycle_ns)
{
    if (net.kind == core::ProtocolKind::BusSnoop) {
        model::BusModelInput in;
        in.census = census;
        in.bus = core::BusSystemConfig::forProcs(wl.procs, net.period)
                     .bus;
        in.system.procCycle = nsToTicks(cycle_ns);
        return model::solveBus(in);
    }
    model::RingModelInput in;
    in.census = census;
    in.ring =
        core::RingSystemConfig::forProcs(wl.procs, net.period).ring;
    in.system.procCycle = nsToTicks(cycle_ns);
    in.protocol = net.kind == core::ProtocolKind::RingDirectory
                      ? model::RingProtocol::Directory
                      : model::RingProtocol::Snoop;
    return model::solveRing(in);
}

core::RunResult
simulate(const trace::WorkloadConfig &wl, const Net &net,
         const fault::FaultConfig &faults)
{
    if (net.kind == core::ProtocolKind::BusSnoop) {
        return core::runBusSystem(
            core::BusSystemConfig::forProcs(wl.procs, net.period), wl);
    }
    core::RingSystemConfig cfg =
        core::RingSystemConfig::forProcs(wl.procs, net.period);
    cfg.common.faults = faults;
    return core::runRingSystem(cfg, wl, net.kind);
}

/** The one block executor, shared by renderFigure and runFigureBlock. */
std::vector<FigureRow>
blockRows(const Block &block, const FigureOptions &opt)
{
    std::vector<FigureRow> rows;
    if (block.sim) {
        // A timed point runs at the default 20 ns (50 MIPS) cycle. The
        // sim points are the expensive half, so the degraded
        // model-only tier omits them.
        if (!opt.modelOnly) {
            const Net &net = block.nets.front();
            rows.push_back(makeRow(block.wl, net, "sim", 20,
                                   simulate(block.wl, net, opt.faults)));
        }
        return rows;
    }
    coherence::Census census = model::calibrate(block.wl);
    for (const Net &net : block.nets) {
        for (double cycle_ns : cycleSweepNs()) {
            rows.push_back(
                makeRow(block.wl, net, "model", cycle_ns,
                        solveModel(block.wl, census, net, cycle_ns)));
        }
    }
    return rows;
}

} // namespace

const char *
figureName(FigureId id)
{
    switch (id) {
      case FigureId::Fig3:
        return "fig3";
      case FigureId::Fig4:
        return "fig4";
      case FigureId::Fig6:
        return "fig6";
    }
    return "?";
}

bool
tryFigureFromName(const std::string &name, FigureId *out)
{
    if (name == "fig3")
        *out = FigureId::Fig3;
    else if (name == "fig4")
        *out = FigureId::Fig4;
    else if (name == "fig6")
        *out = FigureId::Fig6;
    else
        return false;
    return true;
}

std::string
figureTitle(FigureId id)
{
    switch (id) {
      case FigureId::Fig3:
        return "Figure 3: snooping vs directory, 500 MHz 32-bit "
               "rings (SPLASH, 8/16/32 CPUs)";
      case FigureId::Fig4:
        return "Figure 4: snooping vs directory, 500 MHz 32-bit "
               "ring (FFT/WEATHER/SIMPLE, 64 CPUs)";
      case FigureId::Fig6:
        return "Figure 6: 32-bit slotted ring vs 64-bit split "
               "transaction bus (snooping)";
    }
    panic("unreachable figure id");
}

std::string
renderFigure(FigureId id, const FigureOptions &opt, bool csv,
             bool fig6_cholesky)
{
    const std::vector<Block> blocks =
        figureBlocks(id, opt, fig6_cholesky);
    // Model blocks run in one runAll pass and sim blocks in a second.
    // A single pool over all blocks is simpler, but it overlaps the
    // large census and sim blocks (~30 MB each for CHOLESKY-32), and
    // fig3's peak RSS then rose from ~90 MB to 97-106 MB on most seeds.
    std::vector<std::vector<FigureRow>> rows(blocks.size());
    for (bool sim : {false, true}) {
        std::vector<std::size_t> slots;
        std::vector<std::function<std::vector<FigureRow>()>> tasks;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
            if (blocks[i].sim != sim)
                continue;
            slots.push_back(i);
            tasks.push_back(
                [&blocks, &opt, i] { return blockRows(blocks[i], opt); });
        }
        std::vector<std::vector<FigureRow>> done =
            runner::runAll(std::move(tasks), opt.jobs);
        for (std::size_t k = 0; k < slots.size(); ++k)
            rows[slots[k]] = std::move(done[k]);
    }
    return assembleFigure(id, opt, rows, csv, fig6_cholesky);
}

std::size_t
figureBlockCount(FigureId id, const FigureOptions &opt,
                 bool fig6_cholesky)
{
    return figureBlocks(id, opt, fig6_cholesky).size();
}

std::vector<FigureRow>
runFigureBlock(FigureId id, const FigureOptions &opt, std::size_t block,
               bool fig6_cholesky)
{
    const std::vector<Block> blocks =
        figureBlocks(id, opt, fig6_cholesky);
    if (block >= blocks.size())
        panic("figure block index %zu out of range (%zu blocks)", block,
              blocks.size());
    return blockRows(blocks[block], opt);
}

std::string
assembleFigure(FigureId id, const FigureOptions &opt,
               const std::vector<std::vector<FigureRow>> &rows_per_block,
               bool csv, bool fig6_cholesky)
{
    std::size_t n = figureBlockCount(id, opt, fig6_cholesky);
    if (rows_per_block.size() != n)
        panic("figure assembly expects %zu block row sets, got %zu", n,
              rows_per_block.size());
    TextTable table({"workload", "series", "source", "cycle (ns)",
                     "proc util %", "net util %", "miss lat (ns)"});
    for (const std::vector<FigureRow> &rows : rows_per_block) {
        for (const FigureRow &row : rows)
            table.addRow(row);
    }
    std::ostringstream os;
    if (csv) {
        table.printCsv(os);
    } else {
        os << "\n== " << figureTitle(id) << " ==\n";
        table.print(os);
    }
    return os.str();
}

} // namespace ringsim::figures
