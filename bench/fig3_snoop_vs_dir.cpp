/**
 * @file
 * Reproduces Figure 3: snooping vs full-map directory on 500 MHz
 * 32-bit slotted rings — processor utilization, ring utilization and
 * average miss latency vs processor cycle time, for MP3D, WATER and
 * CHOLESKY at 8, 16 and 32 processors.
 *
 * The sweep definition is in src/figures/ (FigureId::Fig3, shared
 * with the experiment service); this binary parses flags and prints.
 * Pass --service ENDPOINT to route the sweep through a ringsim_serve
 * daemon — the output bytes are identical either way.
 */

#include "bench/common.hpp"

using namespace ringsim;

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);
    return bench::runFigure(figures::FigureId::Fig3, opt);
}
