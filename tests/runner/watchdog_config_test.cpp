/**
 * @file
 * Unit tests for watchdog-budget resolution.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/runner/experiment_runner.hpp"

namespace ringsim::runner {
namespace {

using std::chrono::milliseconds;

class WatchdogEnvTest : public testing::Test
{
  protected:
    void TearDown() override { ::unsetenv("RINGSIM_WATCHDOG_MS"); }
};

TEST_F(WatchdogEnvTest, UnsetUsesFallback)
{
    ::unsetenv("RINGSIM_WATCHDOG_MS");
    EXPECT_EQ(watchdogBudget(milliseconds(1234)), milliseconds(1234));
}

TEST_F(WatchdogEnvTest, EnvOverridesFallback)
{
    ::setenv("RINGSIM_WATCHDOG_MS", "250", 1);
    EXPECT_EQ(watchdogBudget(milliseconds(1234)), milliseconds(250));
}

TEST_F(WatchdogEnvTest, MalformedEnvFallsBack)
{
    ::setenv("RINGSIM_WATCHDOG_MS", "soon", 1);
    EXPECT_EQ(watchdogBudget(milliseconds(1234)), milliseconds(1234));
}

TEST_F(WatchdogEnvTest, ZeroEnvDisablesWatchdog)
{
    // ringsim_serve --help documents "0 disables" for the env var, so
    // it must mean the same thing as --watchdog-ms 0 — not silently
    // fall back to the default budget.
    ::setenv("RINGSIM_WATCHDOG_MS", "0", 1);
    EXPECT_EQ(watchdogBudget(milliseconds(1234)), milliseconds(0));
}

} // namespace
} // namespace ringsim::runner
