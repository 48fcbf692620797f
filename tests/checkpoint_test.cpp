// Checkpoint/restart layer: snapshot round-trips, torn/corrupt/stale-file
// fallback, campaign-journal replay idempotence, and the driver-level
// guarantee that a killed-and-resumed run reproduces the uninterrupted
// E_pol and Born radii BIT-IDENTICALLY (0 ulp).
#include "ckpt/snapshot.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/journal.hpp"
#include "core/engine.hpp"
#include "core/kernels_simd.hpp"
#include "molecule/generate.hpp"
#include "surface/quadrature.hpp"
#include "test_helpers.hpp"
#include "trace_helpers.hpp"

namespace gbpol {
namespace {

namespace fs = std::filesystem;
using ckpt::Journal;
using ckpt::JournalRecord;
using ckpt::JobState;
using ckpt::Phase;
using ckpt::Snapshot;
using ckpt::SnapshotStore;

Snapshot make_snapshot(std::uint32_t rank, Phase phase, std::uint64_t cursor,
                       std::uint64_t job_key = 42) {
  Snapshot snap;
  snap.rank = rank;
  snap.ranks = 2;
  snap.phase = phase;
  snap.cursor = cursor;
  snap.job_key = job_key;
  snap.sections = {{1.5, -2.25, 3.0}, {0.125}};
  return snap;
}

// ---------------------------------------------------------------------------
// Snapshot file format

TEST(SnapshotTest, RoundTripPreservesEverything) {
  const std::string dir = testing::fresh_temp_dir("ckpt_roundtrip");
  const std::string path = dir + "/snap.ck";
  const Snapshot snap = make_snapshot(1, Phase::kEpol, 77);
  ASSERT_TRUE(ckpt::write_snapshot(path, snap));

  const auto back = ckpt::read_snapshot(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, ckpt::kSnapshotVersion);
  EXPECT_EQ(back->rank, 1u);
  EXPECT_EQ(back->ranks, 2u);
  EXPECT_EQ(back->phase, Phase::kEpol);
  EXPECT_EQ(back->cursor, 77u);
  EXPECT_EQ(back->job_key, 42u);
  ASSERT_EQ(back->sections.size(), 2u);
  EXPECT_EQ(back->sections[0], snap.sections[0]);  // exact doubles
  EXPECT_EQ(back->sections[1], snap.sections[1]);
}

TEST(SnapshotTest, TruncatedFileIsRejectedAtEveryLength) {
  const std::string dir = testing::fresh_temp_dir("ckpt_torn");
  const std::string path = dir + "/snap.ck";
  ASSERT_TRUE(ckpt::write_snapshot(path, make_snapshot(0, Phase::kBornAccum, 3)));
  std::vector<char> image;
  {
    std::ifstream is(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(image.size(), 16u);
  // A torn write can stop at any byte; none of the prefixes may parse.
  for (std::size_t n = 0; n < image.size(); ++n) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(image.data(), static_cast<std::streamsize>(n));
    os.close();
    EXPECT_FALSE(ckpt::read_snapshot(path).has_value()) << "prefix " << n;
  }
}

TEST(SnapshotTest, BitFlipAnywhereIsRejected) {
  const std::string dir = testing::fresh_temp_dir("ckpt_flip");
  const std::string path = dir + "/snap.ck";
  ASSERT_TRUE(ckpt::write_snapshot(path, make_snapshot(0, Phase::kPush, 0)));
  std::vector<char> image;
  {
    std::ifstream is(path, std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(is), {});
  }
  for (std::size_t at : {std::size_t{0}, image.size() / 2, image.size() - 1}) {
    std::vector<char> bad = image;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    os.close();
    EXPECT_FALSE(ckpt::read_snapshot(path).has_value()) << "flip at " << at;
  }
}

TEST(SnapshotTest, FutureVersionIsRejected) {
  const std::string dir = testing::fresh_temp_dir("ckpt_version");
  const std::string path = dir + "/snap.ck";
  Snapshot snap = make_snapshot(0, Phase::kPush, 0);
  snap.version = ckpt::kSnapshotVersion + 1;  // CRC is valid, version isn't
  ASSERT_TRUE(ckpt::write_snapshot(path, snap));
  EXPECT_FALSE(ckpt::read_snapshot(path).has_value());
}

// A ledger occupies two sections however many chunks it holds, so a rank's
// snapshot stays readable past the section bound; a packed length other
// than ids x partial length is not a ledger.
TEST(SnapshotTest, ChunkLedgerOfManyChunksRoundTrips) {
  const std::string dir = testing::fresh_temp_dir("ckpt_ledger");
  const std::string path = dir + "/snap.ck";
  Snapshot snap = make_snapshot(0, Phase::kBornAccum, 100);
  snap.sections = {{0.5, 0.25}};  // the caller's head section
  std::vector<std::uint32_t> ids;
  std::vector<double> packed;
  for (std::uint32_t i = 0; i < 100; ++i) {
    ids.push_back(3 * i + 1);
    for (int k = 0; k < 3; ++k) packed.push_back(i + 0.125 * k);
  }
  ckpt::append_chunk_ledger(snap, ids, packed);
  EXPECT_EQ(snap.sections.size(), 3u);
  ASSERT_TRUE(ckpt::write_snapshot(path, snap));

  const auto back = ckpt::read_snapshot(path);
  ASSERT_TRUE(back.has_value());
  const ckpt::ChunkLedgerSections led = ckpt::read_chunk_ledger(*back, 1, 3);
  ASSERT_TRUE(led.ok);
  EXPECT_EQ(led.ids, ids);
  for (std::size_t i = 0; i < ids.size(); ++i)
    for (std::size_t k = 0; k < 3; ++k)
      ASSERT_EQ(led.partial(i)[k], packed[3 * i + k]) << i;
  EXPECT_FALSE(ckpt::read_chunk_ledger(*back, 1, 2).ok);  // wrong partial length
  EXPECT_FALSE(ckpt::read_chunk_ledger(*back, 0, 3).ok);  // not where the ledger is
}

// ---------------------------------------------------------------------------
// SnapshotStore consistency rules

TEST(SnapshotStoreTest, LoadsHighestCompletePhase) {
  const std::string dir = testing::fresh_temp_dir("store_phase");
  const SnapshotStore store(dir, 2, 42);
  store.save(make_snapshot(0, Phase::kBornAccum, 8));
  store.save(make_snapshot(1, Phase::kBornAccum, 4));
  store.save(make_snapshot(0, Phase::kPush, 0));  // rank 1 never reached kPush

  const auto set = store.load_latest();
  ASSERT_TRUE(set.has_value());
  // kPush is incomplete (no rank-1 file): fall back to kBornAccum, complete.
  EXPECT_EQ((*set)[0].phase, Phase::kBornAccum);
  EXPECT_EQ((*set)[0].cursor, 8u);
  EXPECT_EQ((*set)[1].cursor, 4u);
}

TEST(SnapshotStoreTest, CorruptNewestCursorFallsBackToOlder) {
  const std::string dir = testing::fresh_temp_dir("store_cursor");
  const SnapshotStore store(dir, 2, 42);
  store.save(make_snapshot(0, Phase::kBornAccum, 4));
  store.save(make_snapshot(1, Phase::kBornAccum, 4));
  store.save(make_snapshot(0, Phase::kBornAccum, 8));
  // Corrupt rank 0's newest snapshot in place.
  {
    std::fstream f(dir + "/ph0_r0_c8.ck", std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(20);
    f.put('\x7f');
  }
  const auto set = store.load_latest();
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ((*set)[0].cursor, 4u);  // fell back past the corrupt cursor
  EXPECT_EQ((*set)[1].cursor, 4u);
}

TEST(SnapshotStoreTest, ForeignJobKeyOrRankCountNeverLoads) {
  const std::string dir = testing::fresh_temp_dir("store_foreign");
  const SnapshotStore writer(dir, 2, 42);
  writer.save(make_snapshot(0, Phase::kPush, 0));
  writer.save(make_snapshot(1, Phase::kPush, 0));
  EXPECT_TRUE(writer.load_latest().has_value());

  const SnapshotStore other_job(dir, 2, 43);   // different job shape
  EXPECT_FALSE(other_job.load_latest().has_value());
  const SnapshotStore other_ranks(dir, 3, 42);  // different world size
  EXPECT_FALSE(other_ranks.load_latest().has_value());
}

TEST(SnapshotStoreTest, EmptyOrMissingDirectoryIsColdStart) {
  const SnapshotStore store(testing::fresh_temp_dir("store_empty"), 2, 42);
  EXPECT_FALSE(store.load_latest().has_value());
  const SnapshotStore missing("/nonexistent/gbpol_ckpt_dir", 2, 42);
  EXPECT_FALSE(missing.load_latest().has_value());
}

// ---------------------------------------------------------------------------
// Campaign journal

TEST(JournalTest, EncodeDecodeRoundTripsAwkwardStrings) {
  JournalRecord rec;
  rec.seq = 7;
  rec.state = JobState::kFailed;
  rec.attempt = 2;
  rec.error = ErrorClass::kIo;
  rec.job = "fig9 ubiquitin p=4";              // spaces
  rec.detail = "line 12: bad radius\n50% off";  // newline + percent
  const std::string line = Journal::encode(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  JournalRecord back;
  ASSERT_TRUE(Journal::decode(line, back));
  EXPECT_EQ(back.seq, rec.seq);
  EXPECT_EQ(back.state, rec.state);
  EXPECT_EQ(back.attempt, rec.attempt);
  EXPECT_EQ(back.error, rec.error);
  EXPECT_EQ(back.job, rec.job);
  EXPECT_EQ(back.detail, rec.detail);
}

TEST(JournalTest, CorruptedLineIsRejected) {
  JournalRecord rec;
  rec.job = "job";
  rec.detail = "detail";
  std::string line = Journal::encode(rec);
  JournalRecord out;
  ASSERT_TRUE(Journal::decode(line, out));
  line[3] = 'X';  // damage the body; CRC no longer matches
  EXPECT_FALSE(Journal::decode(line, out));
}

TEST(JournalTest, ReplayToleratesTornTailAndIsIdempotent) {
  const std::string dir = testing::fresh_temp_dir("journal_torn");
  const std::string path = dir + "/campaign.journal";
  {
    Journal j(path);
    j.append({.state = JobState::kRunning, .attempt = 1, .job = "a", .detail = {}});
    j.append({.state = JobState::kDone, .job = "a", .detail = "E=-1.5"});
    j.append({.state = JobState::kRunning, .attempt = 1, .job = "b", .detail = {}});
  }
  // Simulate a crash mid-append: the last line is cut in half.
  {
    std::ifstream is(path);
    std::string all(std::istreambuf_iterator<char>(is), {});
    is.close();
    const std::size_t keep = all.size() - 12;
    std::ofstream os(path, std::ios::trunc);
    os.write(all.data(), static_cast<std::streamsize>(keep));
  }
  const auto first = Journal::replay_file(path);
  ASSERT_EQ(first.size(), 2u);  // torn record dropped, earlier ones intact
  EXPECT_EQ(first[1].detail, "E=-1.5");
  const auto second = Journal::replay_file(path);
  ASSERT_EQ(second.size(), first.size());  // replay is idempotent
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(second[i].seq, first[i].seq);
    EXPECT_EQ(second[i].state, first[i].state);
    EXPECT_EQ(second[i].job, first[i].job);
  }
  // Appending after replay continues the sequence past the surviving records.
  Journal resumed(path);
  resumed.append({.state = JobState::kFailed, .attempt = 1, .job = "b", .detail = {}});
  EXPECT_GT(resumed.records().back().seq, first.back().seq);
}

// ---------------------------------------------------------------------------
// Driver-level checkpoint/restart: bit-identical resume

class CheckpointDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mol_ = new Molecule(molgen::synthetic_protein(260, 19));
    quad_ = new surface::SurfaceQuadrature(surface::molecular_surface_quadrature(
        *mol_, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3}));
    prep_ = new Prepared(Prepared::build(*mol_, *quad_, 16));
  }
  static void TearDownTestSuite() {
    delete prep_;
    delete quad_;
    delete mol_;
  }

  // Plain OCT_MPI on the canonical chunk fold. The chunk geometry is the
  // kill and snapshot granularity, and it shapes the fold, so each test's
  // clean reference uses the same chunking as its checkpointed runs.
  static RunOptions base_config(int ranks, std::uint32_t chunk_leaves) {
    RunOptions config;
    config.mode = EngineMode::kDistributed;
    config.ranks = ranks;
    config.division = WorkDivision::kNodeNode;
    config.balance_chunk_leaves = chunk_leaves;
    return config;
  }

  static RunResult run(const RunOptions& config) {
    return Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
  }

  static void expect_bit_identical(const RunResult& a, const RunResult& b) {
    EXPECT_EQ(a.energy, b.energy);  // exact: 0 ulp
    ASSERT_EQ(a.born_sorted.size(), b.born_sorted.size());
    for (std::size_t i = 0; i < a.born_sorted.size(); ++i)
      ASSERT_EQ(a.born_sorted[i], b.born_sorted[i]) << "born slot " << i;
  }

  static Molecule* mol_;
  static surface::SurfaceQuadrature* quad_;
  static Prepared* prep_;
};
Molecule* CheckpointDriverTest::mol_ = nullptr;
surface::SurfaceQuadrature* CheckpointDriverTest::quad_ = nullptr;
Prepared* CheckpointDriverTest::prep_ = nullptr;

TEST_F(CheckpointDriverTest, CheckpointingRunMatchesCleanRunExactly) {
  const RunResult clean = run(base_config(3, 4));
  ASSERT_NE(clean.energy, 0.0);
  RunOptions config = base_config(3, 4);
  config.checkpoint.dir = testing::fresh_temp_dir("drv_plain");
  config.checkpoint.every_k_chunks = 2;
  const RunResult ckpt = run(config);
  expect_bit_identical(ckpt, clean);
  EXPECT_FALSE(ckpt.killed);
  EXPECT_FALSE(ckpt.resumed);
  EXPECT_FALSE(fs::is_empty(config.checkpoint.dir));  // snapshots were taken
}

TEST_F(CheckpointDriverTest, KillDuringBornPhaseResumesBitExactly) {
  const RunResult clean = run(base_config(3, 2));
  RunOptions config = base_config(3, 2);
  config.checkpoint.dir = testing::fresh_temp_dir("drv_kill_born");
  config.checkpoint.every_k_chunks = 1;
  config.kill = {.armed = true, .rank = 1, .collective_seq = 0, .tick = 3};
  const RunResult killed = run(config);
  EXPECT_TRUE(killed.killed);
  EXPECT_EQ(killed.error_class, ErrorClass::kFault);

  config.kill = {};
  config.checkpoint.resume = true;
  const RunResult resumed = run(config);
  EXPECT_FALSE(resumed.killed);
  EXPECT_TRUE(resumed.resumed);
  expect_bit_identical(resumed, clean);
}

// A rank killed after publishing over 64 Born chunks: every snapshot the
// run wrote reads back clean (no section bound makes a long ledger look
// corrupt), so the resume starts from each rank's newest cursor and matches
// the uninterrupted run at 0 ulp.
TEST_F(CheckpointDriverTest, KillPastChunk64ResumesFromNewestSnapshot) {
  const RunResult clean = run(base_config(3, 2));
  RunOptions config = base_config(3, 2);
  config.checkpoint.dir = testing::fresh_temp_dir("drv_kill_long");
  config.checkpoint.every_k_chunks = 8;
  config.kill = {.armed = true, .rank = 1, .collective_seq = 0, .tick = 90};
  const RunResult killed = run(config);
  ASSERT_TRUE(killed.killed);

  std::uint64_t newest_cursor = 0;
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(config.checkpoint.dir)) {
    const std::string path = entry.path().string();
    if (entry.path().extension() != ".ck") continue;
    ++files;
    const auto snap = ckpt::read_snapshot(path);
    ASSERT_TRUE(snap.has_value()) << path;
    if (snap->phase == Phase::kBornAccum)
      newest_cursor = std::max<std::uint64_t>(newest_cursor, snap->cursor);
  }
  EXPECT_GT(files, 0u);
  EXPECT_GT(newest_cursor, 64u);

  config.kill = {};
  config.checkpoint.resume = true;
#if GBPOL_TRACING_ENABLED
  const testing::TracedRun traced =
      testing::run_traced(*prep_, ApproxParams{}, GBConstants{}, config);
  EXPECT_EQ(traced.trace.metrics.total_corruption_detected(), 0u);
  const RunResult& resumed = traced.result;
#else
  const RunResult resumed = run(config);
#endif
  EXPECT_TRUE(resumed.resumed);
  expect_bit_identical(resumed, clean);
}

TEST_F(CheckpointDriverTest, KillDuringEnergyPhaseResumesBitExactly) {
  const RunResult clean = run(base_config(3, 2));
  RunOptions config = base_config(3, 2);
  config.checkpoint.dir = testing::fresh_temp_dir("drv_kill_epol");
  config.checkpoint.every_k_chunks = 1;
  // Collective 2 = after the Born token + radii allgatherv: the E_pol loop.
  config.kill = {.armed = true, .rank = 0, .collective_seq = 2, .tick = 2};
  const RunResult killed = run(config);
  EXPECT_TRUE(killed.killed);

  config.kill = {};
  config.checkpoint.resume = true;
  const RunResult resumed = run(config);
  EXPECT_TRUE(resumed.resumed);
  expect_bit_identical(resumed, clean);
}

TEST_F(CheckpointDriverTest, CorruptSnapshotsFallBackNeverWrongAnswer) {
  const RunResult clean = run(base_config(3, 2));
  RunOptions config = base_config(3, 2);
  config.checkpoint.dir = testing::fresh_temp_dir("drv_corrupt");
  config.checkpoint.every_k_chunks = 1;
  config.kill = {.armed = true, .rank = 0, .collective_seq = 2, .tick = 2};
  const RunResult killed = run(config);
  ASSERT_TRUE(killed.killed);

  // Corrupt EVERY snapshot file: resume must degrade to a cold start and
  // still produce the exact answer — a corrupt snapshot is never trusted.
  for (const auto& entry : fs::directory_iterator(config.checkpoint.dir)) {
    std::fstream f(entry.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\x55');
  }
  config.kill = {};
  config.checkpoint.resume = true;
  const RunResult resumed = run(config);
  EXPECT_FALSE(resumed.resumed);  // nothing valid to resume from
  expect_bit_identical(resumed, clean);
}

TEST_F(CheckpointDriverTest, SnapshotFromAnotherKernelTierIsNeverResumed) {
  // The default tier of this host; the test needs one that differs from SoA.
  RunOptions config = base_config(3, 2);
  config.simd = "auto";
  const RunResult clean = run(config);
  const SimdDispatch tier = simd_dispatch();
  if (tier == SimdDispatch::kSoA) GTEST_SKIP() << "no SIMD tier on this host";

  // Killed mid-E_pol under forced SoA: the store holds SoA chunk partials.
  config.checkpoint.dir = testing::fresh_temp_dir("drv_tier_mix");
  config.checkpoint.every_k_chunks = 1;
  config.kill = {.armed = true, .rank = 0, .collective_seq = 2, .tick = 2};
  config.simd = "off";
  const RunResult killed = run(config);
  ASSERT_TRUE(killed.killed);
  EXPECT_FALSE(fs::is_empty(config.checkpoint.dir));

  // Resumed under the default tier: the job key differs, so the SoA store
  // is ignored and the answer is the default tier's, to the bit.
  config.kill = {};
  config.checkpoint.resume = true;
  config.simd = "auto";
  const RunResult resumed = run(config);
  EXPECT_EQ(simd_dispatch(), tier);
  EXPECT_FALSE(resumed.resumed);
  expect_bit_identical(resumed, clean);
}

TEST_F(CheckpointDriverTest, ResumeAfterCompletionStillExact) {
  RunOptions config = base_config(2, 4);
  config.checkpoint.dir = testing::fresh_temp_dir("drv_recomplete");
  config.checkpoint.every_k_chunks = 1;
  const RunResult first = run(config);
  config.checkpoint.resume = true;
  const RunResult again = run(config);
  EXPECT_TRUE(again.resumed);
  expect_bit_identical(again, first);
}

}  // namespace
}  // namespace gbpol
