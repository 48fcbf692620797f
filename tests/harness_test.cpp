// Harness: env knobs, repetition protocol, package dispatch, and the
// supervised resumable campaign runner.
#include "harness/packages.hpp"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "harness/campaign.hpp"
#include "harness/experiment.hpp"
#include "molecule/io.hpp"
#include "support/stats.hpp"
#include "test_helpers.hpp"

namespace gbpol::harness {
namespace {

TEST(EnvTest, DefaultsAndOverrides) {
  unsetenv("GBPOL_TEST_KNOB");
  EXPECT_EQ(env_int("GBPOL_TEST_KNOB", 7), 7);
  EXPECT_DOUBLE_EQ(env_double("GBPOL_TEST_KNOB", 1.5), 1.5);
  setenv("GBPOL_TEST_KNOB", "42", 1);
  EXPECT_EQ(env_int("GBPOL_TEST_KNOB", 7), 42);
  setenv("GBPOL_TEST_KNOB", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("GBPOL_TEST_KNOB", 1.5), 2.5);
  unsetenv("GBPOL_TEST_KNOB");
}

TEST(EnvTest, ScaleAndReps) {
  unsetenv("GBPOL_BENCH_SCALE");
  unsetenv("GBPOL_REPS");
  EXPECT_DOUBLE_EQ(env_scale(), 1.0);
  EXPECT_EQ(env_reps(20), 20);
}

TEST(RepeatTimedTest, CollectsAllRepetitions) {
  int calls = 0;
  const RepeatedTiming t = repeat_timed(5, [&] {
    ++calls;
    return std::make_pair(static_cast<double>(calls), 0.5);
  });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(t.modeled.count, 5u);
  EXPECT_DOUBLE_EQ(t.modeled.min, 1.0);
  EXPECT_DOUBLE_EQ(t.modeled.max, 5.0);
  EXPECT_DOUBLE_EQ(t.wall.mean, 0.5);
}

class PackageDispatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new gbpol::testing::Fixture(gbpol::testing::make_fixture(400));
  }
  static void TearDownTestSuite() { delete fixture_; }
  static const gbpol::testing::Fixture& fix() { return *fixture_; }
  static gbpol::testing::Fixture* fixture_;
};
gbpol::testing::Fixture* PackageDispatchTest::fixture_ = nullptr;

TEST_F(PackageDispatchTest, EveryRegisteredPackageRuns) {
  PackageEnv env;
  env.cores = 4;  // keep the test fast
  env.hybrid_threads = 2;
  for (const auto& info : baselines::package_table()) {
    const PackageRun run = run_package(info.name, fix().mol, fix().quad, fix().prep, env);
    EXPECT_LT(run.energy, 0.0) << info.name;
    EXPECT_TRUE(std::isfinite(run.energy)) << info.name;
    EXPECT_GT(run.modeled_seconds, 0.0) << info.name;
    EXPECT_GT(run.memory_bytes, 0u) << info.name;
  }
}

TEST_F(PackageDispatchTest, OctreePackagesAgreeWithEachOther) {
  PackageEnv env;
  env.cores = 4;
  env.hybrid_threads = 2;
  const PackageRun mpi = run_package("oct_mpi", fix().mol, fix().quad, fix().prep, env);
  const PackageRun hybrid = run_package("oct_hybrid", fix().mol, fix().quad, fix().prep, env);
  EXPECT_NEAR(mpi.energy, hybrid.energy, std::abs(mpi.energy) * 1e-9);
}

TEST_F(PackageDispatchTest, NaivePackageMatchesFixtureReference) {
  PackageEnv env;
  const PackageRun naive = run_package("naive", fix().mol, fix().quad, fix().prep, env);
  EXPECT_NEAR(naive.energy, fix().naive_energy, std::abs(fix().naive_energy) * 1e-12);
}

TEST_F(PackageDispatchTest, UnknownPackageThrows) {
  PackageEnv env;
  EXPECT_THROW(run_package("gromacs-2024", fix().mol, fix().quad, fix().prep, env),
               std::invalid_argument);
}

TEST_F(PackageDispatchTest, OctreeBeatsNaiveOnModeledTime) {
  // The headline claim at miniature scale: hierarchical approximation with
  // parallelism beats the exact quadratic algorithm.
  PackageEnv env;
  env.cores = 4;
  const PackageRun naive = run_package("naive", fix().mol, fix().quad, fix().prep, env);
  const PackageRun oct = run_package("oct_mpi", fix().mol, fix().quad, fix().prep, env);
  EXPECT_LT(oct.modeled_seconds, naive.modeled_seconds);
}

class CampaignTest : public ::testing::Test {
 protected:
  std::string fresh_journal() {
    static int counter = 0;
    const std::filesystem::path dir =
        testing::fresh_temp_dir("campaign_" + std::to_string(counter++));
    return (dir / "sweep.journal").string();
  }

  static CampaignConfig config(std::string path = {}, int max_attempts = 3) {
    CampaignConfig cfg;
    cfg.journal_path = std::move(path);
    cfg.max_attempts = max_attempts;
    return cfg;
  }
};

TEST_F(CampaignTest, RunsJobsAndStoresPayloads) {
  Campaign campaign(config());  // in-memory
  int calls = 0;
  const JobStatus& a = campaign.run("a", [&] { ++calls; return "1.5"; });
  EXPECT_EQ(a.state, ckpt::JobState::kDone);
  EXPECT_EQ(a.payload, "1.5");
  EXPECT_EQ(a.attempts, 1);
  // Re-running a done job is a no-op, even in memory.
  campaign.run("a", [&] { ++calls; return "other"; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(campaign.completed(), 1);
}

TEST_F(CampaignTest, RetriesThenSucceeds) {
  Campaign campaign(config());
  int calls = 0;
  const JobStatus& st = campaign.run("flaky", [&]() -> std::string {
    if (++calls < 3) throw std::runtime_error("transient");
    return "ok";
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(st.state, ckpt::JobState::kDone);
  EXPECT_EQ(st.attempts, 3);
  EXPECT_EQ(st.payload, "ok");
}

TEST_F(CampaignTest, QuarantinesDeterministicFailure) {
  Campaign campaign(config());
  int calls = 0;
  const JobStatus& st = campaign.run("broken", [&]() -> std::string {
    ++calls;
    throw IoError("bad pqr line 7");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(st.state, ckpt::JobState::kQuarantined);
  EXPECT_EQ(st.error, ErrorClass::kIo);
  EXPECT_EQ(st.payload, "bad pqr line 7");
  EXPECT_EQ(campaign.quarantined(), 1);
  // A quarantined job is never re-run.
  campaign.run("broken", [&]() -> std::string { ++calls; return "nope"; });
  EXPECT_EQ(calls, 3);
}

TEST_F(CampaignTest, ResumeSkipsDoneJobsAndKeepsPayloads) {
  const std::string path = fresh_journal();
  int calls = 0;
  {
    Campaign campaign(config(path));
    campaign.run("a", [&] { ++calls; return "ra"; });
    campaign.run("b", [&] { ++calls; return "rb"; });
    ASSERT_TRUE(campaign.journal_healthy());
  }
  // "Restart": a and b must be skipped with their payloads intact; c runs.
  Campaign resumed(config(path));
  const JobStatus& a = resumed.run("a", [&] { ++calls; return "changed"; });
  const JobStatus& c = resumed.run("c", [&] { ++calls; return "rc"; });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(a.payload, "ra");
  EXPECT_TRUE(a.from_journal);
  EXPECT_EQ(c.payload, "rc");
  EXPECT_EQ(resumed.skipped(), 2);
  EXPECT_EQ(resumed.completed(), 3);
}

TEST_F(CampaignTest, ResumeRerunsJobKilledMidRun) {
  const std::string path = fresh_journal();
  {
    // Simulate a campaign killed while "a" was running: journal ends with a
    // running record and no done/failed record.
    ckpt::Journal journal(path);
    ckpt::JournalRecord queued;
    queued.state = ckpt::JobState::kQueued;
    queued.job = "a";
    journal.append(queued);
    ckpt::JournalRecord running;
    running.state = ckpt::JobState::kRunning;
    running.attempt = 1;
    running.job = "a";
    journal.append(running);
  }
  Campaign resumed(config(path));
  int calls = 0;
  const JobStatus& st = resumed.run("a", [&] { ++calls; return "recovered"; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(st.state, ckpt::JobState::kDone);
  EXPECT_EQ(st.payload, "recovered");
  EXPECT_EQ(st.attempts, 2);  // attempt count continues across the restart
}

TEST_F(CampaignTest, AttemptBudgetSpansRestarts) {
  const std::string path = fresh_journal();
  int calls = 0;
  const auto fail = [&]() -> std::string {
    ++calls;
    throw std::runtime_error("deterministic");
  };
  {
    Campaign campaign(config(path, 5));
    campaign.run("d", fail);  // burns all 5 attempts -> quarantined
  }
  EXPECT_EQ(calls, 5);
  Campaign resumed(config(path, 5));
  const JobStatus& st = resumed.run("d", fail);
  EXPECT_EQ(calls, 5);  // not retried: quarantine persisted
  EXPECT_EQ(st.state, ckpt::JobState::kQuarantined);
}

TEST_F(CampaignTest, ClassifiesExceptionsIntoErrorClasses) {
  EXPECT_EQ(Campaign::classify(IoError("x")), ErrorClass::kIo);
  EXPECT_EQ(Campaign::classify(std::bad_alloc()), ErrorClass::kOom);
  EXPECT_EQ(Campaign::classify(std::length_error("huge")), ErrorClass::kOom);
  EXPECT_EQ(Campaign::classify(std::runtime_error("rank 3 stalled")),
            ErrorClass::kTimeout);
  EXPECT_EQ(Campaign::classify(std::runtime_error("recv timed out")),
            ErrorClass::kTimeout);
  EXPECT_EQ(Campaign::classify(std::runtime_error("energy is NaN")),
            ErrorClass::kNumerical);
  EXPECT_EQ(Campaign::classify(std::runtime_error("rank died")),
            ErrorClass::kFault);
  // Corruption: the dedicated type, and checksum-vocabulary messages from
  // code that only has a generic exception to throw. The typed check beats
  // the string heuristics even when the message matches another class.
  EXPECT_EQ(Campaign::classify(CorruptionError("halo payload mismatch")),
            ErrorClass::kCorruption);
  EXPECT_EQ(Campaign::classify(CorruptionError("recv timed out")),
            ErrorClass::kCorruption);
  EXPECT_EQ(Campaign::classify(std::runtime_error("checksum mismatch ph2")),
            ErrorClass::kCorruption);
  EXPECT_EQ(Campaign::classify(std::runtime_error("CRC32 failure in block 4")),
            ErrorClass::kCorruption);
  EXPECT_EQ(Campaign::classify(std::runtime_error("corrupt snapshot header")),
            ErrorClass::kCorruption);
}

TEST_F(CampaignTest, RetryCountRespectsCappedBackoffSchedule) {
  // With a base of 1ms and a cap of 2ms the exponential schedule is
  // 1, 2, 2, 2... ms — attempts must still be exactly max_attempts, and
  // total sleep stays bounded by (max_attempts - 1) * cap.
  CampaignConfig cfg = config({}, 4);
  cfg.backoff_base_seconds = 0.001;
  cfg.backoff_cap_seconds = 0.002;
  Campaign campaign(cfg);
  int calls = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const JobStatus& st = campaign.run("always-bad", [&]() -> std::string {
    ++calls;
    throw std::runtime_error("deterministic");
  });
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(st.attempts, 4);
  EXPECT_EQ(st.state, ckpt::JobState::kQuarantined);
  EXPECT_GE(waited, 0.001 + 0.002 + 0.002);  // the three scheduled sleeps
  EXPECT_LT(waited, 5.0);                    // cap held: no runaway 2^k wait
}

TEST_F(CampaignTest, QuarantinesAlwaysCorruptingJobAsCorruption) {
  Campaign campaign(config());
  int calls = 0;
  const JobStatus& st = campaign.run("sdc", [&]() -> std::string {
    ++calls;
    throw CorruptionError("hot-array checksum mismatch, chunk 12");
  });
  EXPECT_EQ(calls, 3);  // retried to the attempt budget, then quarantined
  EXPECT_EQ(st.state, ckpt::JobState::kQuarantined);
  EXPECT_EQ(st.error, ErrorClass::kCorruption);
  EXPECT_EQ(campaign.quarantined(), 1);
  // Quarantine is sticky: the corrupting job never runs again.
  campaign.run("sdc", [&]() -> std::string { ++calls; return "clean"; });
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace gbpol::harness
