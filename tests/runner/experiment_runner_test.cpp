/**
 * @file
 * Tests for the ExperimentRunner thread pool: deterministic result
 * ordering regardless of worker count, the serial inline path, the
 * seed-derivation helper, and error propagation.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/driver.hpp"
#include "model/calibration.hpp"
#include "model/ring_model.hpp"
#include "runner/experiment_runner.hpp"
#include "trace/workload.hpp"

namespace ringsim::runner {
namespace {

TEST(JobSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(jobSeed(42, 0), jobSeed(42, 0));
    EXPECT_EQ(jobSeed(42, 7), jobSeed(42, 7));

    std::set<std::uint64_t> seeds;
    for (std::uint64_t key = 0; key < 64; ++key)
        seeds.insert(jobSeed(42, key));
    EXPECT_EQ(seeds.size(), 64u) << "per-job seeds must not collide";

    EXPECT_NE(jobSeed(1, 0), jobSeed(2, 0))
        << "different master seeds must derive different job seeds";
}

TEST(ResolveJobs, ExplicitValueWins)
{
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ResolveJobs, ZeroFallsBackToDefault)
{
    EXPECT_EQ(resolveJobs(0), defaultJobs());
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(ResolveJobs, HonorsEnvironment)
{
    ::setenv("RINGSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("RINGSIM_JOBS", "notanumber", 1);
    unsigned fallback = defaultJobs(); // warns, ignores the value
    EXPECT_GE(fallback, 1u);
    ::unsetenv("RINGSIM_JOBS");
}

TEST(ExperimentRunner, ZeroJobsCompletesImmediately)
{
    ExperimentRunner pool(4);
    pool.wait(); // nothing submitted
    std::vector<std::function<int()>> empty;
    EXPECT_TRUE(runAll(std::move(empty), 4).empty());
}

TEST(ExperimentRunner, SerialModeRunsInline)
{
    ExperimentRunner pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::thread::id main_id = std::this_thread::get_id();
    std::thread::id job_id;
    pool.submit([&]() { job_id = std::this_thread::get_id(); });
    pool.wait();
    EXPECT_EQ(job_id, main_id);
}

TEST(ExperimentRunner, MoreThreadsThanJobs)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 3; ++i)
        tasks.push_back([i]() { return i * 10; });
    std::vector<int> out = runAll(std::move(tasks), 16);
    EXPECT_EQ(out, (std::vector<int>{0, 10, 20}));
}

TEST(ExperimentRunner, ResultsIndexedBySubmissionOrder)
{
    // 64 jobs with deliberately uneven run times: results must still
    // land in submission slots, not completion order.
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i) {
        tasks.push_back([i]() {
            if (i % 7 == 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            return i;
        });
    }
    std::vector<int> out = runAll(std::move(tasks), 8);
    ASSERT_EQ(out.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i);
}

TEST(ExperimentRunner, AllJobsRunExactlyOnce)
{
    // One job throws. waitAll() (what ~ServiceCore relies on) must
    // still see all 100 through without throwing; the failure stays
    // for wait() to rethrow.
    std::atomic<int> ran{0};
    ExperimentRunner pool(4);
    for (int i = 0; i < 100; ++i) {
        pool.submit([&ran, i]() {
            ran.fetch_add(1);
            if (i == 37)
                throw std::runtime_error("job 37 failed");
        });
    }
    EXPECT_NO_THROW(pool.waitAll());
    EXPECT_EQ(ran.load(), 100);
    try {
        pool.wait();
        FAIL() << "expected wait() to rethrow the job's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 37 failed");
    }
}

TEST(ExperimentRunner, PropagatesEarliestException)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() { return 1; });
    tasks.push_back([]() -> int {
        throw std::runtime_error("job two failed");
    });
    tasks.push_back([]() -> int {
        throw std::runtime_error("job three failed");
    });
    try {
        runAll(std::move(tasks), 4);
        FAIL() << "expected the job exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job two failed")
            << "earliest-submitted failure wins";
    }
}

TEST(ExperimentRunner, ExceptionInSerialMode)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([]() -> int {
        throw std::runtime_error("serial failure");
    });
    EXPECT_THROW(runAll(std::move(tasks), 1), std::runtime_error);
}

/** Format a model evaluation the way the figure benches do, so the
 *  comparison is sensitive to any cross-thread nondeterminism. */
std::string
sweepRow(const coherence::Census &census, unsigned procs, double mips)
{
    model::RingModelInput in;
    in.census = census;
    in.ring = core::RingSystemConfig::forProcs(procs).ring;
    in.system.procCycle = nsToTicks(1e3 / mips);
    in.protocol = model::RingProtocol::Snoop;
    model::ModelResult r = model::solveRing(in);
    std::ostringstream os;
    os << procs << '/' << mips << ':' << r.procUtilization << ','
       << r.networkUtilization << ',' << r.missLatencyNs;
    return os.str();
}

/** Run a miniature fig3-style sweep (calibrate per workload, then
 *  model rows) at the given worker count and flatten the table. */
std::vector<std::string>
miniSweep(unsigned jobs)
{
    const unsigned procSizes[] = {8, 16};
    std::vector<trace::WorkloadConfig> workloads;
    for (unsigned procs : procSizes) {
        trace::WorkloadConfig wl =
            trace::workloadPreset(trace::Benchmark::MP3D, procs);
        wl.dataRefsPerProc = 400; // keep the test fast
        workloads.push_back(wl);
    }

    std::vector<std::function<coherence::Census()>> calibrations;
    for (const trace::WorkloadConfig &wl : workloads)
        calibrations.push_back(
            [wl]() { return model::calibrate(wl); });
    std::vector<coherence::Census> censuses =
        runAll(std::move(calibrations), jobs);

    std::vector<std::function<std::string()>> rows;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        for (double mips : {100.0, 400.0}) {
            const coherence::Census &census = censuses[i];
            unsigned procs = workloads[i].procs;
            rows.push_back([&census, procs, mips]() {
                return sweepRow(census, procs, mips);
            });
        }
    }
    return runAll(std::move(rows), jobs);
}

TEST(ExperimentRunner, ParallelSweepMatchesSerialByteForByte)
{
    std::vector<std::string> serial = miniSweep(1);
    std::vector<std::string> parallel = miniSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "row " << i;
}

} // namespace
} // namespace ringsim::runner
