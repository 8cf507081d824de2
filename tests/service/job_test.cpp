/**
 * @file
 * Unit tests for job parsing, canonicalization and validation, and
 * known-value pins of one result per job kind.
 */

#include <gtest/gtest.h>

#include "src/service/job.hpp"

namespace ringsim::service {
namespace {

util::JsonValue
parseJson(const std::string &text)
{
    util::JsonValue v;
    std::string error;
    EXPECT_TRUE(util::tryParseJson(text, &v, &error)) << error;
    return v;
}

bool
tryParseJob(const std::string &text, JobSpec *out, std::string *error,
            bool allow_test_jobs = false)
{
    return JobSpec::tryParse(parseJson(text), allow_test_jobs, out,
                            error);
}

TEST(JobParse, RunDefaults)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &spec, &error))
        << error;
    EXPECT_EQ(spec.kind, JobKind::Run);
    EXPECT_EQ(spec.benchmark, trace::Benchmark::MP3D);
    EXPECT_EQ(spec.procs, 16u);
    EXPECT_EQ(spec.protocol, "snoop");
    EXPECT_EQ(spec.refs, 120'000u);
    EXPECT_TRUE(spec.cacheable());
}

TEST(JobParse, UnknownTypeRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob("{\"type\":\"dance\"}", &spec, &error));
    EXPECT_NE(error.find("type = 'dance'"), std::string::npos)
        << error;
}

TEST(JobParse, UnknownBenchmarkRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"doom\"}", &spec, &error));
    EXPECT_NE(error.find("benchmark = 'doom'"), std::string::npos)
        << error;
}

TEST(JobParse, InvalidPresetComboRejected)
{
    JobSpec spec;
    std::string error;
    // MP3D is an 8/16/32 workload; 64 is FFT/WEATHER/SIMPLE-only.
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"mp3d\",\"procs\":64}",
        &spec, &error));
    EXPECT_NE(error.find("procs = 64"), std::string::npos) << error;
}

TEST(JobParse, BusWithFaultsRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"protocol\":\"bus\",\"procs\":8,"
        "\"benchmark\":\"mp3d\","
        "\"faults\":{\"corrupt_rate\":0.001}}",
        &spec, &error));
    EXPECT_NE(error.find("fault"), std::string::npos) << error;
}

TEST(JobParse, FaultRatesValidated)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"run\",\"faults\":{\"corrupt_rate\":1.5}}",
        &spec, &error));
    EXPECT_NE(error.find("faults"), std::string::npos) << error;
}

TEST(JobParse, SweepNamesFigure)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig6\",\"cholesky\":true}",
        &spec, &error))
        << error;
    EXPECT_EQ(spec.figure, figures::FigureId::Fig6);
    EXPECT_TRUE(spec.fig6Cholesky);
}

TEST(JobParse, SweepUnknownFigureRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig9\"}", &spec, &error));
    EXPECT_NE(error.find("figure = 'fig9'"), std::string::npos)
        << error;
}

TEST(JobParse, SweepPartOutOfRangeRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig3\",\"part\":27}", &spec,
        &error));
    EXPECT_EQ(error, "part = 27: fig3 has 27 blocks (0..26)");
}

TEST(JobParse, VerifyBoundsChecked)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob(
        "{\"type\":\"verify\",\"nodes\":99}", &spec, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JobParse, SleepGatedByTestJobs)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(tryParseJob("{\"type\":\"sleep\",\"ms\":5}", &spec,
                             &error, /*allow_test_jobs=*/false));
    EXPECT_NE(error.find("test jobs"), std::string::npos) << error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"sleep\",\"ms\":5}", &spec,
                            &error, /*allow_test_jobs=*/true))
        << error;
    EXPECT_EQ(spec.kind, JobKind::Sleep);
    EXPECT_FALSE(spec.cacheable());
}

TEST(JobParse, ZeroRefsRejected)
{
    JobSpec spec;
    std::string error;
    EXPECT_FALSE(
        tryParseJob("{\"type\":\"run\",\"refs\":0}", &spec, &error));
    EXPECT_NE(error.find("refs = 0"), std::string::npos) << error;
}

TEST(JobCanonical, OmittedAndExplicitDefaultsCollide)
{
    // The memoization contract: spelling a default out must hit the
    // same cache entry as omitting it.
    JobSpec a, b;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &a, &error));
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"mp3d\",\"procs\":16,"
        "\"protocol\":\"snoop\",\"refs\":120000,\"seed\":12345,"
        "\"fast\":false}",
        &b, &error));
    EXPECT_EQ(a.canonical().dump(), b.canonical().dump());
}

TEST(JobCanonical, ResultAffectingFieldsChangeTheSpec)
{
    JobSpec a, b, c;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &a, &error));
    ASSERT_TRUE(
        tryParseJob("{\"type\":\"run\",\"seed\":999}", &b, &error));
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"run\",\"faults\":{\"corrupt_rate\":0.001}}", &c,
        &error));
    EXPECT_NE(a.canonical().dump(), b.canonical().dump());
    EXPECT_NE(a.canonical().dump(), c.canonical().dump());
}

TEST(JobCanonical, KindsAreDisjoint)
{
    JobSpec run, model;
    std::string error;
    ASSERT_TRUE(tryParseJob("{\"type\":\"run\"}", &run, &error));
    ASSERT_TRUE(tryParseJob("{\"type\":\"model\"}", &model, &error));
    EXPECT_NE(run.canonical().dump(), model.canonical().dump());
}

TEST(JobDescribe, NamesTheWork)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"sweep\",\"figure\":\"fig3\"}", &spec, &error));
    EXPECT_NE(spec.describe().find("fig3"), std::string::npos);
}

TEST(JobExecute, VerifySmallConfigRuns)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"verify\",\"protocol\":\"snoop\",\"nodes\":2,"
        "\"blocks\":1,\"inflight\":2}",
        &spec, &error))
        << error;
    util::JsonValue result = executeJob(spec, 1);
    std::vector<std::string> errors;
    EXPECT_EQ(result.getString("kind", "", &errors), "verify");
    EXPECT_TRUE(result.getBool("clean", false, &errors));
    EXPECT_TRUE(errors.empty());
}

TEST(JobExecute, ModelSolvesQuickly)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"model\",\"benchmark\":\"mp3d\",\"procs\":8,"
        "\"refs\":2000,\"fast\":true,\"cycle_ns\":40}",
        &spec, &error))
        << error;
    util::JsonValue result = executeJob(spec, 1);
    std::vector<std::string> errors;
    EXPECT_EQ(result.getString("kind", "", &errors), "model");
    double util = result.getNumber("proc_util", -1, &errors);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
    EXPECT_TRUE(errors.empty());
}

TEST(JobExecute, RunIsDeterministic)
{
    JobSpec spec;
    std::string error;
    ASSERT_TRUE(tryParseJob(
        "{\"type\":\"run\",\"benchmark\":\"mp3d\",\"procs\":8,"
        "\"refs\":1500,\"fast\":true}",
        &spec, &error))
        << error;
    // Byte-identical re-execution is what makes memoization legal.
    EXPECT_EQ(executeJob(spec, 1).dump(), executeJob(spec, 1).dump());
}

// Absolute pins of one result per job kind. The cache promises "same
// spec, same bytes"; these tie that promise to fixed values, so a
// change that moves both a cached and a fresh result alike still
// fails here. The run result carries full-precision doubles that the
// paper tables round away. A change that means to move these bytes
// updates them and says why in CHANGES.md.
std::string
executeDump(const std::string &text)
{
    JobSpec spec;
    std::string error;
    EXPECT_TRUE(tryParseJob(text, &spec, &error)) << error;
    return executeJob(spec, 1).dump();
}

TEST(JobGolden, RunResultBytes)
{
    EXPECT_EQ(
        executeDump("{\"type\":\"run\",\"benchmark\":\"mp3d\","
                    "\"procs\":16,\"protocol\":\"snoop\","
                    "\"refs\":12000,\"fast\":true}"),
        R"({"kind":"run","protocol":"ring-snoop","workload":"MP3D 16",)"
        R"("proc_util":0.33091762623925614,"net_util":0.4352834869469499,)"
        R"("miss_lat_ns":334.76499999999999,)"
        R"("miss_lat_all_ns":169.74799999999999,)"
        R"("upgrade_lat_ns":154.29499999999999,)"
        R"("acquire_wait_ns":41.688903404915244,"window":365202000,)"
        R"("local_misses":20598,"clean_miss1":738,"dirty_miss1":618,)"
        R"("miss2":0,"upgrades":1184,"faults_injected":0,"retries":0,)"
        R"("recovered":0,"fatal_txns":0,"nacks":0,"timeouts":0})");
}

TEST(JobGolden, ModelResultBytes)
{
    EXPECT_EQ(
        executeDump("{\"type\":\"model\",\"benchmark\":\"mp3d\","
                    "\"procs\":16,\"protocol\":\"directory\","
                    "\"cycle_ns\":20,\"refs\":12000,\"fast\":true}"),
        R"({"kind":"model","workload":"MP3D 16","protocol":"directory",)"
        R"("cycle_ns":20,"proc_util":0.30367858218387284,)"
        R"("net_util":0.059822873079614702,)"
        R"("miss_lat_ns":340.66705022488213})");
}

TEST(JobGolden, SweepPartResultBytes)
{
    EXPECT_EQ(
        executeDump("{\"type\":\"sweep\",\"figure\":\"fig3\","
                    "\"part\":7,\"refs\":12000,\"fast\":true}"),
        R"({"kind":"sweep_part","figure":"fig3","part":7,"rows":)"
        R"([["MP3D 32","snooping","sim","20","17.6","53.4","529"]]})");
}

} // namespace
} // namespace ringsim::service
