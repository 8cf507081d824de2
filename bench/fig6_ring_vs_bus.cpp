/**
 * @file
 * Reproduces Figure 6: 32-bit slotted rings (250 and 500 MHz, with
 * the snooping protocol) vs 64-bit split-transaction buses (50 and
 * 100 MHz) on MP3D and WATER at 8, 16 and 32 processors — processor
 * utilization, network utilization and miss latency vs processor
 * cycle time.
 *
 * Expected shapes (paper Section 4.3): the buses are competitive at
 * 8 CPUs with slow processors, then saturate as processors speed up
 * or the system grows; the rings' utilization stays below ~80 % and
 * their latencies stay stable. CHOLESKY behaves like MP3D (the paper
 * omits it for space; pass --cholesky to include it here).
 *
 * The sweep definition is in src/figures/ (FigureId::Fig6); --service
 * routes it through a ringsim_serve daemon with identical output.
 */

#include <cstring>
#include <vector>

#include "bench/common.hpp"

using namespace ringsim;

int
main(int argc, char **argv)
{
    // Peel off the bench-specific flag before common parsing.
    bool with_cholesky = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::strcmp(argv[i], "--cholesky") == 0) {
            with_cholesky = true;
            continue;
        }
        args.push_back(argv[i]);
    }
    bench::Options opt =
        bench::parseOptions(static_cast<int>(args.size()), args.data());
    return bench::runFigure(figures::FigureId::Fig6, opt,
                            with_cholesky);
}
