/**
 * @file
 * The figure block contract, for every figure: the rows of
 * runFigureBlock(0..n-1), assembled with assembleFigure, equal
 * renderFigure byte for byte at any worker count, in text and CSV,
 * with faults off and on, and under modelOnly. The fleet and the
 * service's sweep-part jobs rely on it to split a sweep.
 */

#include <gtest/gtest.h>

#include "src/figures/figures.hpp"

namespace ringsim::figures {
namespace {

struct FigureCase
{
    const char *name;
    FigureId id;
    bool cholesky;
    std::size_t blocks;          //!< pinned block count
    std::size_t seriesPerBlock;  //!< model series per workload
};

std::ostream &
operator<<(std::ostream &os, const FigureCase &c)
{
    return os << c.name;
}

FigureOptions
smallOptions(bool faults)
{
    FigureOptions opt;
    opt.refs = 600;
    opt.fast = true;
    if (faults) {
        opt.faults.corruptRate = 0.001;
        opt.faults.seed = 7;
        opt.faults.maxFaults = 50;
    }
    return opt;
}

std::vector<std::vector<FigureRow>>
runEveryBlock(const FigureCase &c, const FigureOptions &opt)
{
    std::vector<std::vector<FigureRow>> rows;
    std::size_t n = figureBlockCount(c.id, opt, c.cholesky);
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back(runFigureBlock(c.id, opt, i, c.cholesky));
    return rows;
}

class BlockContract : public ::testing::TestWithParam<FigureCase>
{};

TEST_P(BlockContract, BlockCountIsPinned)
{
    const FigureCase &c = GetParam();
    EXPECT_EQ(figureBlockCount(c.id, FigureOptions{}, c.cholesky),
              c.blocks);
}

// A model block holds all of one workload's series (12 cycle points
// each); a sim block holds one timed row.
TEST_P(BlockContract, ModelBlocksHoldEverySeriesOfAWorkload)
{
    const FigureCase &c = GetParam();
    std::vector<std::vector<FigureRow>> parts =
        runEveryBlock(c, smallOptions(false));
    ASSERT_EQ(parts.size(), c.blocks);
    std::size_t model_blocks = 0;
    for (const std::vector<FigureRow> &rows : parts) {
        ASSERT_FALSE(rows.empty());
        if (rows[0][2] == "sim") {
            EXPECT_EQ(rows.size(), 1u);
            continue;
        }
        ++model_blocks;
        EXPECT_EQ(rows.size(),
                  c.seriesPerBlock * cycleSweepNs().size());
        for (const FigureRow &row : rows) {
            EXPECT_EQ(row[0], rows[0][0]) << "one workload per block";
            EXPECT_EQ(row[2], "model");
        }
    }
    // Every figure times two validation points per workload.
    EXPECT_EQ(model_blocks * 3, c.blocks);
}

TEST_P(BlockContract, AssembledBlocksEqualRender)
{
    const FigureCase &c = GetParam();
    std::vector<std::vector<FigureRow>> parts[2];
    for (bool faults : {false, true}) {
        FigureOptions opt = smallOptions(faults);
        parts[faults] = runEveryBlock(c, opt);
        for (unsigned jobs : {1u, 4u}) {
            opt.jobs = jobs;
            for (bool csv : {false, true}) {
                EXPECT_EQ(assembleFigure(c.id, opt, parts[faults], csv,
                                         c.cholesky),
                          renderFigure(c.id, opt, csv, c.cholesky))
                    << "faults " << faults << ", jobs " << jobs
                    << ", csv " << csv;
            }
        }
    }
    EXPECT_NE(parts[0], parts[1])
        << "fault injection changed nothing; the faulty variant is "
           "not exercising a distinct code path";
}

TEST_P(BlockContract, ModelOnlyEmptiesSimBlocksAndKeepsTheirIndex)
{
    const FigureCase &c = GetParam();
    FigureOptions full = smallOptions(false);
    FigureOptions model_only = full;
    model_only.modelOnly = true;
    std::vector<std::vector<FigureRow>> all = runEveryBlock(c, full);
    std::vector<std::vector<FigureRow>> parts =
        runEveryBlock(c, model_only);
    ASSERT_EQ(parts.size(), all.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (all[i][0][2] == "sim")
            EXPECT_TRUE(parts[i].empty()) << "block " << i;
        else
            EXPECT_EQ(parts[i], all[i]) << "block " << i;
    }
    for (unsigned jobs : {1u, 4u}) {
        model_only.jobs = jobs;
        EXPECT_EQ(assembleFigure(c.id, model_only, parts, false,
                                 c.cholesky),
                  renderFigure(c.id, model_only, false, c.cholesky))
            << "jobs " << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Figures, BlockContract,
    ::testing::Values(FigureCase{"fig3", FigureId::Fig3, false, 27, 2},
                      FigureCase{"fig4", FigureId::Fig4, false, 9, 2},
                      FigureCase{"fig6", FigureId::Fig6, false, 18, 4},
                      FigureCase{"fig6_cholesky", FigureId::Fig6, true,
                                 27, 4}),
    [](const ::testing::TestParamInfo<FigureCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace ringsim::figures
