/**
 * @file
 * Reproduces Figure 4: snooping vs full-map directory on a 500 MHz
 * 32-bit slotted ring for the 64-processor workloads FFT, WEATHER and
 * SIMPLE.
 *
 * The sweep definition is in src/figures/ (FigureId::Fig4); --service
 * routes it through a ringsim_serve daemon with identical output.
 */

#include "bench/common.hpp"

using namespace ringsim;

int
main(int argc, char **argv)
{
    bench::Options opt = bench::parseOptions(argc, argv);
    return bench::runFigure(figures::FigureId::Fig4, opt);
}
