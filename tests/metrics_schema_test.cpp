// metrics.json schema: emit -> parse -> re-emit is a fixed point, unknown
// schema versions are rejected loudly, and the merged per-rank phase-busy
// matrix reconciles with the runtime's own compute-time accounting.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "test_helpers.hpp"
#include "trace_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::TracedRun;
using testing::make_fixture;
using testing::run_traced;

class MetricsSchemaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(make_fixture(300));
    ApproxParams params;
    RunOptions config;
    config.ranks = 4;
    run_ = new TracedRun(
        run_traced(fixture_->prep, params, GBConstants{}, config));
    hybrid_run_ = new TracedRun(
        run_traced(fixture_->prep, params, GBConstants{}, distributed_options(2, 2)));
  }
  static void TearDownTestSuite() {
    delete hybrid_run_;
    delete run_;
    delete fixture_;
  }
  static const Fixture& fix() { return *fixture_; }
  static const TracedRun& run() { return *run_; }
  static Fixture* fixture_;
  static TracedRun* run_;
  static TracedRun* hybrid_run_;  // 2 ranks x 2 pool threads
};
Fixture* MetricsSchemaTest::fixture_ = nullptr;
TracedRun* MetricsSchemaTest::run_ = nullptr;
TracedRun* MetricsSchemaTest::hybrid_run_ = nullptr;

obs::MetricsDoc make_doc(const TracedRun& run) {
  obs::MetricsDoc doc;
  doc.figure = "metrics_schema_test";
  obs::MetricsEntry entry;
  entry.label = "OCT_MPI P=4";
  entry.extra.emplace_back("energy", obs::json::Value(run.result.energy));
  entry.extra.emplace_back("ranks", obs::json::Value(run.result.ranks));
  entry.metrics = run.trace.metrics;
  doc.entries.push_back(std::move(entry));
  return doc;
}

TEST_F(MetricsSchemaTest, EmitParseReEmitIsFixedPoint) {
  const obs::MetricsDoc doc = make_doc(run());
  const std::string first = obs::metrics_to_json(doc).dump();
  const obs::MetricsParse parsed = obs::metrics_from_string(first);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_FALSE(parsed.version_mismatch);
  EXPECT_EQ(parsed.found_version, obs::kMetricsSchemaVersion);
  EXPECT_EQ(parsed.doc.figure, doc.figure);
  ASSERT_EQ(parsed.doc.entries.size(), 1u);
  EXPECT_EQ(parsed.doc.entries[0].label, doc.entries[0].label);
  const std::string second = obs::metrics_to_json(parsed.doc).dump();
  EXPECT_EQ(first, second);
}

TEST_F(MetricsSchemaTest, ParsedSnapshotMatchesOriginal) {
  const obs::MetricsDoc doc = make_doc(run());
  const obs::MetricsParse parsed =
      obs::metrics_from_string(obs::metrics_to_json(doc).dump());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const obs::MetricsSnapshot& in = doc.entries[0].metrics;
  const obs::MetricsSnapshot& out = parsed.doc.entries[0].metrics;
  ASSERT_EQ(out.ranks, in.ranks);
  EXPECT_EQ(out.phase_busy_seconds, in.phase_busy_seconds);
  EXPECT_EQ(out.collective_count, in.collective_count);
  EXPECT_EQ(out.collective_bytes, in.collective_bytes);
  EXPECT_EQ(out.rank_compute_seconds, in.rank_compute_seconds);
  EXPECT_EQ(out.rank_bytes_sent, in.rank_bytes_sent);
  EXPECT_EQ(out.rank_retransmits, in.rank_retransmits);
  EXPECT_EQ(out.rank_chunks, in.rank_chunks);
  EXPECT_EQ(out.chunk_service_hist, in.chunk_service_hist);
  EXPECT_EQ(out.steal_attempts, in.steal_attempts);
  EXPECT_EQ(out.pop_misses, in.pop_misses);
}

TEST_F(MetricsSchemaTest, UnknownSchemaVersionIsRejected) {
  const obs::MetricsDoc doc = make_doc(run());
  obs::json::Value root = obs::metrics_to_json(doc);
  bool patched = false;
  for (auto& [key, value] : root.as_object()) {
    if (key == "schema_version") {
      value = obs::json::Value(obs::kMetricsSchemaVersion + 1);
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  const obs::MetricsParse parsed = obs::metrics_from_json(root);
  EXPECT_FALSE(parsed.ok);
  EXPECT_TRUE(parsed.version_mismatch);
  EXPECT_EQ(parsed.found_version, obs::kMetricsSchemaVersion + 1);
  EXPECT_NE(parsed.error.find("schema_version"), std::string::npos);
}

TEST_F(MetricsSchemaTest, MissingFieldIsRejectedNotGuessed) {
  const obs::MetricsDoc doc = make_doc(run());
  obs::json::Value root = obs::metrics_to_json(doc);
  // Drop a required snapshot field from the only entry.
  for (auto& [key, value] : root.as_object()) {
    if (key != "entries") continue;
    for (auto& entry : value.as_array()) {
      for (auto& [ekey, evalue] : entry.as_object()) {
        if (ekey != "metrics") continue;
        auto& fields = evalue.as_object();
        std::erase_if(fields,
                      [](const auto& kv) { return kv.first == "rank_chunks"; });
      }
    }
  }
  const obs::MetricsParse parsed = obs::metrics_from_json(root);
  EXPECT_FALSE(parsed.ok);
  EXPECT_FALSE(parsed.version_mismatch);
  EXPECT_NE(parsed.error.find("rank_chunks"), std::string::npos);
}

TEST_F(MetricsSchemaTest, PhaseBusyReconcilesWithRuntimeAccounting) {
  // Comm::add_compute_seconds feeds BOTH the per-rank compute total the
  // runtime reports and the phase-busy matrix (attributed to the phase open
  // on the thread), so the per-rank row sums must agree to accumulation
  // noise. This is the cross-check that makes the phase breakdown a
  // decomposition of real numbers rather than a separate estimate. Hybrid
  // ranks charge each pool dispatch (its chunks' CPU times list-scheduled
  // over the workers) from the rank thread, so the same holds for them.
  for (const TracedRun* traced : {run_, hybrid_run_}) {
    const obs::MetricsSnapshot& m = traced->trace.metrics;
    ASSERT_EQ(m.ranks, traced->result.ranks);
    double summed = 0.0;
    for (int r = 0; r < m.ranks; ++r) {
      EXPECT_NEAR(m.total_phase_busy(r), m.rank_compute_seconds[r], 1e-9)
          << "rank " << r;
      summed += m.total_phase_busy(r);
    }
    EXPECT_NEAR(summed, m.total_phase_busy_all(), 1e-12);
    // The runtime's modeled makespan input (max compute over ranks) is
    // reproducible from the snapshot alone.
    double max_compute = 0.0;
    for (int r = 0; r < m.ranks; ++r)
      max_compute = std::max(
          max_compute, m.rank_compute_seconds[r] + m.rank_straggler_seconds[r]);
    EXPECT_NEAR(max_compute, traced->result.compute_seconds,
                1e-9 * (1.0 + max_compute));
  }
}

}  // namespace
}  // namespace gbpol
