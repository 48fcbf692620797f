// Engine facade contract: mode routing (the route() table: rejected shapes
// throw naming the field, supported shapes run), the RunOptions factories,
// env-default resolution for the two destination fields, and the versioned
// RunResult JSON schema (round-trip fixed point + loud rejection of unknown
// versions).
#include "core/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels_simd.hpp"
#include "molecule/generate.hpp"
#include "surface/quadrature.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Molecule mol = molgen::synthetic_protein(180, 23);
    quad_ = new surface::SurfaceQuadrature(surface::molecular_surface_quadrature(
        mol, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3}));
    prep_ = new Prepared(Prepared::build(mol, *quad_, 16));
  }
  static void TearDownTestSuite() {
    delete prep_;
    delete quad_;
  }

  static surface::SurfaceQuadrature* quad_;
  static Prepared* prep_;
};
surface::SurfaceQuadrature* EngineTest::quad_ = nullptr;
Prepared* EngineTest::prep_ = nullptr;

TEST_F(EngineTest, FactoriesSetTheAdvertisedShape) {
  const RunOptions serial = serial_options(TraversalMode::kRecursive);
  EXPECT_EQ(serial.mode, EngineMode::kSerial);
  EXPECT_EQ(serial.traversal, TraversalMode::kRecursive);
  const RunOptions cilk = cilk_options(6);
  EXPECT_EQ(cilk.mode, EngineMode::kCilk);
  EXPECT_EQ(cilk.threads_per_rank, 6);
  const RunOptions dist = distributed_options(8, 2);
  EXPECT_EQ(dist.mode, EngineMode::kDistributed);
  EXPECT_EQ(dist.ranks, 8);
  EXPECT_EQ(dist.threads_per_rank, 2);
  // The side-channel-free defaults: empty destinations, no faults, static
  // balance.
  EXPECT_TRUE(dist.trace_out.empty());
  EXPECT_TRUE(dist.campaign_dir.empty());
  EXPECT_EQ(dist.balance, BalancePolicy::kStatic);
}

TEST_F(EngineTest, AutoModeRoutesByTopology) {
  const Engine engine(*prep_);
  RunOptions options;  // kAuto, ranks = 1, threads = 1 -> serial
  const RunResult serial = engine.run(options);
  EXPECT_EQ(serial.ranks, 1);
  EXPECT_EQ(serial.threads_per_rank, 1);
  EXPECT_TRUE(serial.rank_results.empty());
  ASSERT_NE(serial.energy, 0.0);

  options.threads_per_rank = 4;  // kAuto, threads > 1 -> cilk: one 4-thread rank
  const RunResult cilk = engine.run(options);
  EXPECT_EQ(cilk.threads_per_rank, 4);
  EXPECT_EQ(cilk.rank_results.size(), 1u);

  options.threads_per_rank = 1;
  options.ranks = 3;  // kAuto, ranks > 1 -> distributed
  const RunResult dist = engine.run(options);
  EXPECT_EQ(dist.ranks, 3);
  EXPECT_EQ(dist.rank_results.size(), 3u);
}

// --- routing -------------------------------------------------------------

// Every shape no driver honours throws std::invalid_argument naming the
// offending field, both from route() and from Engine::run: a run never
// falls back to a driver other than the one its options name.
TEST_F(EngineTest, RouteRejectsShapesNoDriverHonours) {
  const std::string dir = testing::temp_path("gbpol_route_unused");
  struct Rejected {
    const char* label;
    const char* field;
    RunOptions options;
  };
  std::vector<Rejected> table;
  const auto add = [&](const char* label, const char* field, RunOptions o) {
    table.push_back({label, field, std::move(o)});
  };
  RunOptions o;

  // kOwned outside the canonical-fold configuration.
  o = distributed_options(3);
  o.distribution = DataDistribution::kOwned;
  o.division = WorkDivision::kAtomBased;
  add("owned kAtomBased", "division", o);

  // The recursive A/B baseline on any shape but serial.
  RunOptions owned = distributed_options(3), atom_based = distributed_options(3);
  owned.distribution = DataDistribution::kOwned;
  atom_based.division = WorkDivision::kAtomBased;
  for (auto [label, shape] : {std::pair{"cilk kRecursive", cilk_options(2)},
                              {"replicated kRecursive", distributed_options(3)},
                              {"hybrid kRecursive", distributed_options(2, 2)},
                              {"owned kRecursive", owned},
                              {"kAtomBased kRecursive", atom_based}}) {
    shape.traversal = TraversalMode::kRecursive;
    add(label, "traversal", shape);
  }

  // Balancing outside it.
  o = distributed_options(3);
  o.balance = BalancePolicy::kCostModel;
  o.division = WorkDivision::kAtomBased;
  add("kCostModel kAtomBased", "division", o);

  // Threads inside ranks on the one-thread static-reduction ablation.
  o = distributed_options(2, 2);
  o.division = WorkDivision::kAtomBased;
  add("kAtomBased hybrid", "threads_per_rank", o);

  // Kill or checkpoint on a legacy shape without kill points.
  o = distributed_options(3);
  o.division = WorkDivision::kAtomBased;
  o.kill.armed = true;
  add("kill kAtomBased", "kill", o);
  o = distributed_options(3);
  o.division = WorkDivision::kAtomBased;
  o.checkpoint.dir = dir;
  add("checkpoint kAtomBased", "checkpoint.dir", o);

  // Distributed-only fields on the shared-memory modes.
  o = serial_options();
  o.distribution = DataDistribution::kOwned;
  add("owned serial", "distribution", o);
  o = cilk_options(2);
  o.balance = BalancePolicy::kSteal;
  add("kSteal cilk", "balance", o);
  o = cilk_options(2);
  o.kill.armed = true;
  add("kill cilk", "kill", o);
  o = serial_options();
  o.checkpoint.dir = dir;
  add("checkpoint serial", "checkpoint.dir", o);
  o = serial_options();
  o.ranks = 4;
  add("ranks serial", "ranks", o);
  o = cilk_options(2);
  o.ranks = 2;
  add("ranks cilk", "ranks", o);
  o = serial_options();
  o.threads_per_rank = 3;
  add("threads serial", "threads_per_rank", o);
  o = cilk_options(2);
  o.division = WorkDivision::kAtomBased;
  add("kAtomBased cilk", "division", o);
  o = serial_options();
  o.faults.deaths.push_back({1, 0});
  add("death serial", "faults", o);
  o = cilk_options(2);
  o.faults.delays.push_back({0, 1, 0, 1e-3});
  add("delay cilk", "faults", o);
  o = serial_options();
  o.corruption.hot_arrays.push_back({0, mpisim::CorruptionPlan::kBornPartials, 0, 7});
  add("corruption serial", "corruption", o);
  o = cilk_options(2);
  o.stall_timeout_seconds = 0.5;
  add("supervised cilk", "stall_timeout_seconds", o);

  // Deaths and stalls on kAtomBased, whose plain collectives cannot recover.
  o = distributed_options(3);
  o.division = WorkDivision::kAtomBased;
  o.faults.deaths.push_back({2, 0});
  add("death kAtomBased", "faults", o);
  o = distributed_options(3);
  o.division = WorkDivision::kAtomBased;
  o.faults.stalls.push_back({1, 1});
  o.stall_timeout_seconds = 0.5;
  add("stall kAtomBased", "faults", o);

  const Engine engine(*prep_);
  for (const Rejected& row : table) {
    SCOPED_TRACE(row.label);
    const std::string expected = std::string("RunOptions::") + row.field + ":";
    try {
      (void)route(row.options);
      ADD_FAILURE() << "route accepted the shape";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)engine.run(row.options), std::invalid_argument);
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// Every supported shape routes to its driver and runs. The canonical-fold
// shapes (OCT_CILK, plain OCT_MPI, hybrid ranks, every policy, owned data,
// armed kill, checkpointing) agree to the bit with the one-thread run on as
// many ranks as they have worker threads; the other drivers agree with them
// to reassociation distance.
TEST_F(EngineTest, RouteRunsEverySupportedShape) {
  const std::string dir = testing::temp_path("gbpol_route_hybrid_ckpt");
  std::filesystem::remove_all(dir);
  struct Supported {
    const char* label;
    Driver driver;
    RunOptions options;
  };
  std::vector<Supported> table;
  const auto add = [&](const char* label, Driver driver, RunOptions o) {
    table.push_back({label, driver, std::move(o)});
  };
  RunOptions o;
  add("serial", Driver::kSerial, serial_options());
  add("cilk", Driver::kCanonical, cilk_options(2));
  add("2x2 hybrid", Driver::kCanonical, distributed_options(2, 2));
  o = distributed_options(3, 2);
  o.distribution = DataDistribution::kOwned;
  add("owned hybrid", Driver::kCanonical, o);
  o = distributed_options(3, 2);
  o.balance = BalancePolicy::kSteal;
  add("kSteal hybrid", Driver::kCanonical, o);
  o = distributed_options(2, 2);
  o.kill.armed = true;  // beyond the last kill poll: the run finishes
  o.kill.tick = std::numeric_limits<std::uint64_t>::max();
  add("kill hybrid", Driver::kCanonical, o);
  o = distributed_options(2, 2);
  o.checkpoint.dir = dir;
  add("checkpoint hybrid", Driver::kCanonical, o);
  o = distributed_options(3);
  o.division = WorkDivision::kAtomBased;
  add("kAtomBased", Driver::kAtomBased, o);
  add("1-thread kStatic replicated", Driver::kCanonical, distributed_options(3));
  o = distributed_options(3);
  o.balance = BalancePolicy::kCostModel;
  add("kCostModel replicated", Driver::kCanonical, o);
  o.balance = BalancePolicy::kSteal;
  add("kSteal replicated", Driver::kCanonical, o);
  for (const BalancePolicy policy :
       {BalancePolicy::kStatic, BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
    o = distributed_options(3);
    o.distribution = DataDistribution::kOwned;
    o.balance = policy;
    add("owned", Driver::kCanonical, o);
  }

  const Engine engine(*prep_);
  const RunResult serial = engine.run(serial_options());
  for (const Supported& row : table) {
    SCOPED_TRACE(std::string(row.label) + " balance=" +
                 std::to_string(static_cast<int>(row.options.balance)));
    EXPECT_EQ(route(row.options), row.driver);
    const RunResult r = engine.run(row.options);
    EXPECT_NEAR(r.energy, serial.energy, 1e-9 * std::abs(serial.energy));
    const bool owned = row.options.distribution == DataDistribution::kOwned;
    EXPECT_EQ(r.owned_bytes_per_rank > 0, owned);
    if (row.driver == Driver::kCanonical) {
      const RunResult twin =
          engine.run(distributed_options(row.options.ranks * row.options.threads_per_rank));
      EXPECT_FALSE(r.killed);
      EXPECT_EQ(r.energy, twin.energy);
      EXPECT_EQ(r.born_sorted, twin.born_sorted);
    }
  }
  EXPECT_TRUE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);

  // Plain OCT_MPI is the canonical fold at every rank count: bit-identical
  // to both balance policies and to owned data at the same P.
  for (const int ranks : {1, 3, 5, 8}) {
    const RunResult plain = engine.run(distributed_options(ranks));
    for (const BalancePolicy policy : {BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
      o = distributed_options(ranks);
      o.balance = policy;
      const RunResult r = engine.run(o);
      SCOPED_TRACE("P=" + std::to_string(ranks) +
                   " balance=" + std::to_string(static_cast<int>(policy)));
      EXPECT_EQ(r.energy, plain.energy);
      EXPECT_EQ(r.born_sorted, plain.born_sorted);
    }
    o = distributed_options(ranks);
    o.distribution = DataDistribution::kOwned;
    const RunResult owned = engine.run(o);
    SCOPED_TRACE("P=" + std::to_string(ranks) + " owned");
    EXPECT_EQ(owned.energy, plain.energy);
    EXPECT_EQ(owned.born_sorted, plain.born_sorted);
  }
}

// --- env-default resolution ----------------------------------------------

struct EnvGuard {
  explicit EnvGuard(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
  }
  ~EnvGuard() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(EngineEnvTest, ExplicitFieldWinsOverEnvironment) {
  const EnvGuard trace_guard("GBPOL_TRACE_OUT");
  const EnvGuard campaign_guard("GBPOL_CAMPAIGN_DIR");
  ::setenv("GBPOL_TRACE_OUT", "/tmp/env_trace.json", 1);
  ::setenv("GBPOL_CAMPAIGN_DIR", "/tmp/env_campaign", 1);

  RunOptions options;
  // Empty field: the env default applies.
  EXPECT_EQ(resolved_trace_out(options), "/tmp/env_trace.json");
  EXPECT_EQ(resolved_campaign_dir(options), "/tmp/env_campaign");
  // Explicit field: wins over the environment.
  options.trace_out = "/tmp/explicit_trace.json";
  options.campaign_dir = "/tmp/explicit_campaign";
  EXPECT_EQ(resolved_trace_out(options), "/tmp/explicit_trace.json");
  EXPECT_EQ(resolved_campaign_dir(options), "/tmp/explicit_campaign");
  // "-" is the explicit OFF switch: the env default is ignored.
  options.trace_out = "-";
  options.campaign_dir = "-";
  EXPECT_EQ(resolved_trace_out(options), "");
  EXPECT_EQ(resolved_campaign_dir(options), "");
}

TEST(EngineEnvTest, NoFieldAndNoEnvironmentResolvesToOff) {
  const EnvGuard trace_guard("GBPOL_TRACE_OUT");
  const EnvGuard campaign_guard("GBPOL_CAMPAIGN_DIR");
  ::unsetenv("GBPOL_TRACE_OUT");
  ::unsetenv("GBPOL_CAMPAIGN_DIR");
  const RunOptions options;
  EXPECT_EQ(resolved_trace_out(options), "");
  EXPECT_EQ(resolved_campaign_dir(options), "");
}

TEST(EngineEnvTest, SimdFieldWinsOverEnvironment) {
  // GBPOL_SIMD absorption: the RunOptions field is the documented control;
  // the env var is only the default when the field is empty.
  const EnvGuard simd_guard("GBPOL_SIMD");
  ::setenv("GBPOL_SIMD", "off", 1);
  RunOptions options;
  EXPECT_EQ(resolved_simd(options), "off");
  options.simd = "avx2";
  EXPECT_EQ(resolved_simd(options), "avx2");
  ::unsetenv("GBPOL_SIMD");
  options.simd.clear();
  EXPECT_EQ(resolved_simd(options), "");

  // The override plumbing behind the field: set / read back / clear.
  simd_set_override("soa");
  EXPECT_EQ(simd_override(), "soa");
  EXPECT_EQ(simd_dispatch(), SimdDispatch::kSoA);
  simd_set_override("auto");
  EXPECT_EQ(simd_override(), "");
  simd_dispatch_refresh();
}

// --- RunResult JSON schema ------------------------------------------------

TEST_F(EngineTest, RunResultJsonEmitParseEmitIsAFixedPoint) {
  // A distributed run so rank_results (the most structure-rich part of the
  // schema) is populated.
  const RunResult result =
      Engine(*prep_).run(distributed_options(3));
  ASSERT_EQ(result.rank_results.size(), 3u);

  const std::string first = run_result_to_json(result, "fixture").dump();
  const RunResultParse parsed = run_result_from_string(first);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_FALSE(parsed.version_mismatch);
  EXPECT_EQ(parsed.doc.label, "fixture");
  EXPECT_EQ(parsed.doc.energy, result.energy);
  EXPECT_EQ(parsed.doc.ranks, 3);
  EXPECT_EQ(parsed.doc.born_count, result.born_sorted.size());
  ASSERT_EQ(parsed.doc.rank_results.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(parsed.doc.rank_results[r].compute_seconds,
              result.rank_results[r].compute_seconds);
    EXPECT_EQ(parsed.doc.rank_results[r].bytes_sent,
              result.rank_results[r].bytes_sent);
  }
  // %.17g doubles: emit -> parse -> emit reproduces the bytes exactly.
  const std::string second = run_result_doc_to_json(parsed.doc).dump();
  EXPECT_EQ(second, first);
}

TEST_F(EngineTest, WriteRunResultJsonRoundTripsThroughAFile) {
  const RunResult result = Engine(*prep_).run(serial_options());
  const std::string path = ::testing::TempDir() + "/gbpol_run_result_" +
                           std::to_string(::getpid()) + ".json";
  ASSERT_TRUE(write_run_result_json(result, "file-round-trip", path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const RunResultParse parsed = run_result_from_string(buffer.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.doc.label, "file-round-trip");
  EXPECT_EQ(parsed.doc.energy, result.energy);
  std::remove(path.c_str());
}

TEST(RunResultSchemaTest, UnknownVersionIsRejectedLoudly) {
  RunResultDoc doc;
  doc.label = "future";
  obs::json::Value value = run_result_doc_to_json(doc);
  for (auto& [key, field] : value.as_object())
    if (key == "schema_version") field = obs::json::Value(3);
  const RunResultParse parsed = run_result_from_string(value.dump());
  EXPECT_FALSE(parsed.ok);
  EXPECT_TRUE(parsed.version_mismatch);
  EXPECT_EQ(parsed.found_version, 3);
  EXPECT_NE(parsed.error.find("unsupported run-result schema_version 3"),
            std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("expects 2"), std::string::npos) << parsed.error;
}

TEST(RunResultSchemaTest, V1DocumentsAreRejectedWithAMigrationHint) {
  // A v1 document (no serving fields) must fail loudly with a message that
  // names the v2 additions, not a generic field-missing error.
  RunResultDoc doc;
  doc.label = "legacy";
  obs::json::Value value = run_result_doc_to_json(doc);
  auto& object = value.as_object();
  for (auto& [key, field] : object)
    if (key == "schema_version") field = obs::json::Value(1);
  object.erase(
      std::remove_if(object.begin(), object.end(),
                     [](const auto& kv) {
                       return kv.first == "cache_hit" ||
                              kv.first == "queue_seconds" ||
                              kv.first == "serve_seconds" ||
                              kv.first == "batch_id";
                     }),
      object.end());
  const RunResultParse parsed = run_result_from_string(value.dump());
  EXPECT_FALSE(parsed.ok);
  EXPECT_TRUE(parsed.version_mismatch);
  EXPECT_EQ(parsed.found_version, 1);
  EXPECT_NE(parsed.error.find("schema_version 1"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("serving fields"), std::string::npos)
      << parsed.error;
}

TEST(RunResultSchemaTest, V2ServingFieldsAreRequired) {
  // Dropping a serving field from an otherwise-valid v2 document is a
  // malformed document, not a soft default.
  RunResultDoc doc;
  doc.label = "v2";
  obs::json::Value value = run_result_doc_to_json(doc);
  auto& object = value.as_object();
  object.erase(std::remove_if(
                   object.begin(), object.end(),
                   [](const auto& kv) { return kv.first == "cache_hit"; }),
               object.end());
  const RunResultParse parsed = run_result_from_string(value.dump());
  EXPECT_FALSE(parsed.ok);
  EXPECT_FALSE(parsed.version_mismatch);
  EXPECT_NE(parsed.error.find("cache_hit"), std::string::npos) << parsed.error;
}

TEST(RunResultSchemaTest, MalformedDocumentsFailWithReasons) {
  const RunResultParse not_json = run_result_from_string("not json at all");
  EXPECT_FALSE(not_json.ok);
  EXPECT_FALSE(not_json.error.empty());

  const RunResultParse not_object = run_result_from_string("[1,2,3]");
  EXPECT_FALSE(not_object.ok);
  EXPECT_FALSE(not_object.version_mismatch);

  const RunResultParse no_version = run_result_from_string("{\"label\":\"x\"}");
  EXPECT_FALSE(no_version.ok);
  EXPECT_NE(no_version.error.find("schema_version"), std::string::npos);

  // A v1 document with a field of the wrong type parses loudly, not quietly.
  RunResultDoc doc;
  obs::json::Value value = run_result_doc_to_json(doc);
  for (auto& [key, field] : value.as_object())
    if (key == "energy") field = obs::json::Value("not-a-number");
  const RunResultParse bad_field = run_result_from_string(value.dump());
  EXPECT_FALSE(bad_field.ok);
  EXPECT_NE(bad_field.error.find("energy"), std::string::npos) << bad_field.error;
}

}  // namespace
}  // namespace gbpol
