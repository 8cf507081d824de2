/**
 * @file
 * Tests of the service lifecycle checker: every configuration of the
 * default matrix verifies clean, each seeded TableMutation is caught
 * with the defect it causes, and every counterexample carries a
 * numbered, human-readable trace (a violation nobody can replay is
 * useless).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "src/service/lifecycle_check.hpp"

namespace ringsim::service {
namespace {

LifecycleConfig
makeConfig(unsigned workers, unsigned depth, unsigned retain,
           TableMutation mutation = TableMutation::None)
{
    LifecycleConfig c;
    c.workers = workers;
    c.depth = depth;
    c.retainDone = retain;
    c.mutation = mutation;
    return c;
}

bool
hasDefect(const LifecycleReport &r, LifecycleDefect d)
{
    for (const LifecycleFinding &f : r.findings)
        if (f.kind == d)
            return true;
    return false;
}

TEST(Lifecycle, CleanAcrossDefaultMatrix)
{
    std::vector<LifecycleConfig> matrix =
        lifecycleMatrix(TableMutation::None);
    ASSERT_EQ(matrix.size(), 18u);
    for (const LifecycleConfig &c : matrix) {
        LifecycleReport r = checkLifecycle(c);
        EXPECT_TRUE(r.clean()) << r.summary();
        EXPECT_GT(r.states, 1000u) << r.summary();
        EXPECT_GT(r.transitions, r.states) << r.summary();
        EXPECT_GT(r.quiescentStates, 0u) << r.summary();
    }
}

TEST(Lifecycle, BadConfigsRejected)
{
    LifecycleConfig c;
    c.jobs = 9;
    EXPECT_NE(c.check(), "");
    c = LifecycleConfig{};
    c.workers = 0;
    EXPECT_NE(c.check(), "");
    c = LifecycleConfig{};
    c.depth = 4;
    EXPECT_NE(c.check(), "");
    c = LifecycleConfig{};
    c.retainDone = 0;
    EXPECT_NE(c.check(), "");
    EXPECT_EQ(LifecycleConfig{}.check(), "");
    EXPECT_FALSE(checkLifecycle(c).clean());
}

TEST(Lifecycle, MutationNamesRoundTrip)
{
    for (TableMutation m : allTableMutations) {
        TableMutation parsed = TableMutation::None;
        ASSERT_TRUE(tableMutationFromName(tableMutationName(m),
                                          &parsed));
        EXPECT_EQ(parsed, m);
    }
    TableMutation parsed = TableMutation::None;
    EXPECT_FALSE(tableMutationFromName("no-such-mutation", &parsed));
}

/** Every seeded fault is caught at workers 1 / depth 2, with the
 *  defect its broken transition causes, and the search keeps going
 *  past the first finding. */
TEST(Lifecycle, EveryMutationCaughtWithItsDefect)
{
    struct Case
    {
        TableMutation mutation;
        LifecycleDefect defect;
    };
    const Case cases[] = {
        {TableMutation::DropDrainRelease, LifecycleDefect::SlotDrift},
        {TableMutation::DropLateRelease, LifecycleDefect::SlotDrift},
        {TableMutation::DoubleAnswerLate,
         LifecycleDefect::AnsweredTwice},
        {TableMutation::ShedLeaksSlot, LifecycleDefect::SlotDrift},
        {TableMutation::SkipCancelAnswer, LifecycleDefect::LostJob},
        {TableMutation::StaleInflightAttach,
         LifecycleDefect::FlightLeak},
        {TableMutation::IgnoreInflight,
         LifecycleDefect::DuplicateFlight},
    };
    ASSERT_EQ(std::size(cases), allTableMutations.size());
    for (const Case &c : cases) {
        LifecycleReport r =
            checkLifecycle(makeConfig(1, 2, 3, c.mutation));
        EXPECT_FALSE(r.clean())
            << tableMutationName(c.mutation)
            << " escaped: " << r.summary();
        EXPECT_TRUE(hasDefect(r, c.defect))
            << tableMutationName(c.mutation) << " not reported as "
            << lifecycleDefectName(c.defect) << ": " << r.summary();
        EXPECT_GT(r.states, 1000u) << r.summary();
    }
}

/** Counterexamples are replayable: a numbered event trace from the
 *  empty service to the violation. */
TEST(Lifecycle, CounterexamplesCarryNumberedTraces)
{
    LifecycleReport r = checkLifecycle(
        makeConfig(1, 1, 3, TableMutation::DropDrainRelease));
    ASSERT_FALSE(r.findings.empty());
    const LifecycleFinding &f = r.findings.front();
    EXPECT_FALSE(f.detail.empty());
    ASSERT_FALSE(f.trace.empty());
    for (std::size_t i = 0; i < f.trace.size(); ++i)
        EXPECT_EQ(f.trace[i].rfind(std::to_string(i + 1) + ". ", 0),
                  0u)
            << f.trace[i];
    bool sawSubmit = false, sawDrain = false;
    for (const std::string &step : f.trace) {
        if (step.find("submit job") != std::string::npos)
            sawSubmit = true;
        if (step.find("drains") != std::string::npos)
            sawDrain = true;
    }
    EXPECT_TRUE(sawSubmit) << "trace lacks the admitting submit";
    EXPECT_TRUE(sawDrain) << "trace lacks the mutated drain step";
}

} // namespace
} // namespace ringsim::service
