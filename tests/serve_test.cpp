// Serving-layer contract (serve/service.hpp): the three determinism paths
// against their cold twins, concurrent mixed-workload soak, byte-budgeted
// cache eviction, kill/restart resume of a half-drained durable queue, and
// pooled-vs-unpooled bit identity.
#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/journal.hpp"
#include "core/incremental.hpp"
#include "molecule/generate.hpp"
#include "obs/trace.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {
namespace {

surface::QuadratureParams test_quadrature() { return {2.0, 1, 2.3}; }

ServeRequest make_request(const Molecule& mol, const std::string& id = "") {
  ServeRequest req;
  req.id = id;
  req.mol = mol;
  req.surface = test_quadrature();
  req.params.leaf_capacity = 16;
  return req;
}

// Deterministic sub-skin docking jitter: pose k displaces a couple of
// "ligand" atoms by < 0.1 A and leaves the rest anchored, so a delta update
// has clean leaves to reuse.
Molecule jittered(const Molecule& base, int pose) {
  Molecule mol = base;
  std::uint64_t state = 0x9e3779b97f4a7c15ull * (pose + 1);
  const std::size_t moved = std::max<std::size_t>(1, mol.size() / 100);
  for (Atom& a : mol.atoms().subspan(0, moved)) {
    const auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return (static_cast<double>(state % 2001) - 1000.0) / 10000.0;  // +-0.1
    };
    a.pos.x += next();
    a.pos.y += next();
    a.pos.z += next();
  }
  return mol;
}

// The cold twin: fresh surface, fresh Prepared, direct Engine::run.
RunResult direct_cold(const ServeRequest& req, const RunOptions& run) {
  const surface::SurfaceQuadrature quad =
      surface::molecular_surface_quadrature(req.mol, req.surface);
  const Prepared prep =
      Prepared::build(req.mol, quad, req.params.leaf_capacity);
  return Engine(prep, req.params, req.constants).run(run);
}

std::string temp_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "gbpol_serve_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ServeTest, ColdThenCachedThenMemoizedAreAllBitIdenticalToDirect) {
  const Molecule mol = molgen::synthetic_protein(110, 7);
  ServiceOptions options;
  options.campaign_dir = "-";
  options.delta_routing = false;
  Service service(options);

  const RunResult twin = direct_cold(make_request(mol), options.run);

  // Distinct ids, identical content: cold, then memoized replay.
  const ServeResult cold = service.serve(make_request(mol, "a"));
  EXPECT_EQ(cold.path, ServePath::kCold);
  EXPECT_FALSE(cold.result.cache_hit);
  EXPECT_EQ(cold.result.energy, twin.energy);
  ASSERT_EQ(cold.result.born_sorted, twin.born_sorted);
  EXPECT_GE(cold.result.serve_seconds, 0.0);

  const ServeResult memo = service.serve(make_request(mol, "b"));
  EXPECT_EQ(memo.path, ServePath::kMemoized);
  EXPECT_TRUE(memo.result.cache_hit);
  EXPECT_EQ(memo.result.energy, twin.energy);

  // With memoization off, the repeat exercises the Prepared cache instead —
  // still bit-identical, because Prepared::build is deterministic.
  ServiceOptions raw = options;
  raw.memoize_results = false;
  Service uncached(raw);
  const ServeResult first = uncached.serve(make_request(mol, "a"));
  const ServeResult second = uncached.serve(make_request(mol, "b"));
  EXPECT_EQ(first.path, ServePath::kCold);
  EXPECT_EQ(second.path, ServePath::kCached);
  EXPECT_TRUE(second.result.cache_hit);
  EXPECT_EQ(second.result.energy, twin.energy);
  ASSERT_EQ(second.result.born_sorted, twin.born_sorted);

  const ServiceStats stats = uncached.stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(ServeTest, DeltaRoutedPosesMatchTheKColdMirrorDriver) {
  const Molecule base = molgen::synthetic_protein(200, 11);
  ServiceOptions options;
  options.campaign_dir = "-";
  ASSERT_TRUE(options.delta_routing);
  Service service(options);

  constexpr int kPoses = 4;
  std::vector<ServeResult> served;
  served.push_back(service.serve(make_request(base)));
  EXPECT_EQ(served.front().path, ServePath::kCold);
  for (int pose = 1; pose <= kPoses; ++pose)
    served.push_back(service.serve(make_request(jittered(base, pose))));

  // Mirror: a kCold TrajectoryDriver anchored at the SAME first geometry and
  // fed the SAME step sequence must agree to the last bit (the differential
  // contract of core/incremental.hpp).
  TrajectoryOptions topt;
  topt.skin = options.delta_skin;
  topt.surface = test_quadrature();
  ServeRequest proto = make_request(base);
  TrajectoryDriver mirror(base, topt, proto.params, proto.constants);
  RunOptions cold_run = options.run;
  cold_run.reuse = ReuseMode::kCold;
  for (int pose = 1; pose <= kPoses; ++pose) {
    const ServeResult& s = served[static_cast<std::size_t>(pose)];
    EXPECT_EQ(s.path, ServePath::kDelta) << "pose " << pose;
    const Molecule mol = jittered(base, pose);
    std::vector<Vec3> positions;
    for (const Atom& a : mol.atoms()) positions.push_back(a.pos);
    const RunResult twin = mirror.step(positions, cold_run);
    EXPECT_EQ(s.result.energy, twin.energy) << "pose " << pose;
    ASSERT_EQ(s.result.born_sorted, twin.born_sorted) << "pose " << pose;
    // Mostly-anchored poses actually reuse cached near-field work — the
    // delta path is doing its job, not silently recomputing everything.
    // Pose 1 is the family driver's first step: it seeds the incremental
    // caches with a fresh (zero-reuse) evaluation by design.
    if (pose >= 2) {
      EXPECT_GT(s.result.reused_fraction, 0.0) << "pose " << pose;
    }
  }
  EXPECT_EQ(service.stats().delta_routed, static_cast<std::uint64_t>(kPoses));
}

TEST(ServeTest, DeltaRoutingOffServesEveryPoseZeroUlpVsDirect) {
  const Molecule base = molgen::synthetic_protein(100, 13);
  ServiceOptions options;
  options.campaign_dir = "-";
  options.delta_routing = false;
  Service service(options);
  for (int pose = 0; pose < 3; ++pose) {
    const Molecule mol = pose == 0 ? base : jittered(base, pose);
    const ServeResult s = service.serve(make_request(mol));
    const RunResult twin = direct_cold(make_request(mol), options.run);
    EXPECT_EQ(s.result.energy, twin.energy) << "pose " << pose;
    ASSERT_EQ(s.result.born_sorted, twin.born_sorted) << "pose " << pose;
  }
  EXPECT_EQ(service.stats().delta_routed, 0u);
}

TEST(ServeTest, ConcurrentMixedSoakExercisesEveryPathBitIdentically) {
  // ZDock-ish mix at test scale: a few base molecules, exact repeats,
  // jittered poses, and cold singletons — submitted from multiple threads,
  // served in acceptance order, each verified against its path twin.
  ServiceOptions options;
  options.campaign_dir = "-";
  options.delta_routing = false;  // strict paths: every twin is direct_cold
  const int repeats_per_base =
      resolved_soak_requests(options, /*quick_scale=*/3, /*soak_scale=*/12);
  Service service(options);

  std::vector<Molecule> bases;
  for (int b = 0; b < 3; ++b)
    bases.push_back(molgen::synthetic_protein(90 + 10 * b, 17 + b));

  obs::start_session();
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t)
    submitters.emplace_back([&service, &bases, t, repeats_per_base]() {
      for (int r = 0; r < repeats_per_base; ++r) {
        // Mix: exact repeat of a base, a jittered pose, a cold singleton.
        service.submit(make_request(bases[static_cast<std::size_t>(
            (t + r) % static_cast<int>(bases.size()))]));
        service.submit(
            make_request(jittered(bases[0], 100 * t + r)));
        service.submit(make_request(
            molgen::synthetic_protein(80, 1000 + 100 * t + r)));
      }
    });
  for (std::thread& t : submitters) t.join();

  const std::size_t accepted = service.queued();
  EXPECT_EQ(accepted,
            static_cast<std::size_t>(4 * 3 * repeats_per_base));
  const std::vector<ServeResult> results = service.drain();
  const obs::Trace trace = obs::stop_session();
  ASSERT_EQ(results.size(), accepted);

  std::uint64_t cold = 0, memo = 0, cached = 0;
  for (const ServeResult& r : results) {
    switch (r.path) {
      case ServePath::kCold: ++cold; break;
      case ServePath::kMemoized: ++memo; break;
      case ServePath::kCached: ++cached; break;
      default: FAIL() << "unexpected path " << serve_path_name(r.path);
    }
  }
  EXPECT_EQ(cold + memo + cached, results.size());
  EXPECT_GT(cold, 0u);
  EXPECT_GT(memo, 0u);  // exact repeats across threads

  // Bit-identity spot check: a fresh repeat of a base molecule replays the
  // soak's stored answer, which must equal the direct cold twin.
  const RunResult twin = direct_cold(make_request(bases[0]), options.run);
  const ServeResult repeat = service.serve(make_request(bases[0]));
  EXPECT_EQ(repeat.path, ServePath::kMemoized);
  EXPECT_EQ(repeat.result.energy, twin.energy);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.served, accepted + 1);
  EXPECT_GT(stats.memo_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_EQ(trace.metrics.requests_accepted, accepted);
  EXPECT_EQ(trace.metrics.requests_served, accepted);
  EXPECT_EQ(trace.metrics.cache_misses, stats.cache_misses);
}

TEST(ServeTest, CacheEvictionHoldsTheByteBudgetAndStaysCorrect) {
  // Property: after any serve sequence, cache_bytes <= budget unless a
  // single entry alone exceeds it (the never-evict-the-MRU rule), and an
  // evicted molecule re-serves bit-identically (rebuild == original build).
  ServiceOptions options;
  options.campaign_dir = "-";
  options.delta_routing = false;
  options.memoize_results = false;  // force every repeat through the cache
  Service probe(options);
  (void)probe.serve(make_request(molgen::synthetic_protein(100, 29)));
  const std::size_t one_entry = probe.cache_bytes();
  ASSERT_GT(one_entry, 0u);

  options.cache_budget_bytes = one_entry * 2 + one_entry / 2;  // fits ~2
  Service service(options);
  std::vector<Molecule> mols;
  for (int i = 0; i < 5; ++i)
    mols.push_back(molgen::synthetic_protein(100, 29 + i));
  std::vector<double> first_energies;
  for (const Molecule& mol : mols) {
    const ServeResult r = service.serve(make_request(mol));
    first_energies.push_back(r.result.energy);
    EXPECT_TRUE(service.cache_bytes() <= options.cache_budget_bytes ||
                service.cache_entries() == 1)
        << "cache_bytes " << service.cache_bytes();
  }
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_GT(stats.cache_evicted_bytes, 0u);
  EXPECT_LE(service.cache_bytes(), options.cache_budget_bytes);
  EXPECT_LT(service.cache_entries(), mols.size());

  // mols[0] was evicted long ago: re-serving is a fresh cold build and must
  // reproduce the original answer exactly.
  const ServeResult again = service.serve(make_request(mols[0]));
  EXPECT_EQ(again.path, ServePath::kCold);
  EXPECT_EQ(again.result.energy, first_energies[0]);
}

TEST(ServeTest, KillRestartResumesAHalfDrainedQueue) {
  const std::string dir = temp_dir("resume");
  std::vector<Molecule> mols;
  for (int i = 0; i < 6; ++i)
    mols.push_back(molgen::synthetic_protein(90, 41 + i));

  std::vector<double> first_energies;
  {
    ServiceOptions options;
    options.campaign_dir = dir;
    options.delta_routing = false;
    Service service(options);
    for (int i = 0; i < 6; ++i)
      service.submit(make_request(mols[static_cast<std::size_t>(i)],
                                  "job-" + std::to_string(i)));
    const std::vector<ServeResult> half = service.drain(3);
    ASSERT_EQ(half.size(), 3u);
    for (const ServeResult& r : half) first_energies.push_back(r.result.energy);
    EXPECT_EQ(service.queued(), 3u);
    // Service dies here with the queue half-drained; the journal has 3 done
    // jobs and 6 accepted ones.
  }

  ServiceOptions options;
  options.campaign_dir = dir;
  options.delta_routing = false;
  Service restarted(options);
  for (int i = 0; i < 6; ++i)
    restarted.submit(make_request(mols[static_cast<std::size_t>(i)],
                                  "job-" + std::to_string(i)));
  const std::vector<ServeResult> all = restarted.drain();
  ASSERT_EQ(all.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    const ServeResult& r = all[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.path, ServePath::kReplayed) << "job " << i;
    EXPECT_TRUE(r.from_journal);
    EXPECT_EQ(r.result.energy, first_energies[static_cast<std::size_t>(i)]);
  }
  for (int i = 3; i < 6; ++i) {
    const ServeResult& r = all[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.path, ServePath::kCold) << "job " << i;
    EXPECT_FALSE(r.from_journal);
    const RunResult twin = direct_cold(
        make_request(mols[static_cast<std::size_t>(i)]), options.run);
    EXPECT_EQ(r.result.energy, twin.energy);
  }
  EXPECT_EQ(restarted.stats().replayed, 3u);
  std::filesystem::remove_all(dir);
}

TEST(ServeTest, RestartWithAutoIdsNeverReplaysAForeignRequest) {
  // Regression: auto ids restarting at req-0 in every incarnation must not
  // let a restarted service replay the PREVIOUS incarnation's journaled
  // answer for a DIFFERENT molecule. Sequence numbering resumes past the
  // journal's highest seen auto id.
  const std::string dir = temp_dir("autoid");
  const Molecule first_mol = molgen::synthetic_protein(90, 61);
  const Molecule second_mol = molgen::synthetic_protein(100, 62);
  ServiceOptions options;
  options.campaign_dir = dir;
  options.delta_routing = false;
  {
    Service service(options);
    service.submit(make_request(first_mol));  // journaled as req-0
    ASSERT_EQ(service.drain().size(), 1u);
  }

  Service restarted(options);
  const ServeResult r = restarted.serve(make_request(second_mol));
  EXPECT_NE(r.path, ServePath::kReplayed);
  EXPECT_FALSE(r.from_journal);
  const RunResult twin = direct_cold(make_request(second_mol), options.run);
  EXPECT_EQ(r.result.energy, twin.energy);
  ASSERT_EQ(r.result.born_sorted, twin.born_sorted);
  EXPECT_EQ(restarted.stats().replayed, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServeTest, JournalReplayRejectsASameIdRequestWithDifferentContent) {
  // An explicit id reused for a different molecule must be recomputed, not
  // answered with the journaled payload of the original request: the
  // request_key stamp in the payload is validated before any replay.
  const std::string dir = temp_dir("keycheck");
  const Molecule first_mol = molgen::synthetic_protein(90, 67);
  const Molecule second_mol = molgen::synthetic_protein(100, 68);
  ServiceOptions options;
  options.campaign_dir = dir;
  options.delta_routing = false;
  {
    Service service(options);
    (void)service.serve(make_request(first_mol, "dup"));
  }

  Service restarted(options);
  const ServeResult r = restarted.serve(make_request(second_mol, "dup"));
  EXPECT_NE(r.path, ServePath::kReplayed);
  const RunResult twin = direct_cold(make_request(second_mol), options.run);
  EXPECT_EQ(r.result.energy, twin.energy);
  ASSERT_EQ(r.result.born_sorted, twin.born_sorted);
  EXPECT_EQ(restarted.stats().replay_rejected, 1u);

  // The SAME request under the same id still replays bit-identically.
  Service again(options);
  const ServeResult replay = again.serve(make_request(first_mol, "dup"));
  EXPECT_EQ(replay.path, ServePath::kReplayed);
  const RunResult ftwin = direct_cold(make_request(first_mol), options.run);
  EXPECT_EQ(replay.result.energy, ftwin.energy);
  std::filesystem::remove_all(dir);
}

TEST(ServeTest, JournalEntryWithAnOldFormatRequestKeyIsRecomputed) {
  // Request keys carry a format word. A journal written under the previous
  // format — when plain OCT_MPI still ran the legacy reduction, whose bits
  // differ from the canonical chunk fold's — must never answer a request
  // now: its entries are recomputed, not honoured.
  //
  // The request_key the previous format stamped for exactly this request
  // (id "legacy", synthetic_protein(90, 73), run = distributed_options(3),
  // default ServiceOptions otherwise).
  constexpr char kOldFormatKey[] = "4046dc03f68efb89";
  const std::string dir = temp_dir("oldkey");
  const Molecule mol = molgen::synthetic_protein(90, 73);
  ServiceOptions options;
  options.campaign_dir = dir;
  options.delta_routing = false;
  options.run = distributed_options(3);
  const RunResult twin = direct_cold(make_request(mol), options.run);
  {
    Service service(options);
    (void)service.serve(make_request(mol, "legacy"));
  }

  // Restamp the journaled answer as an old-format entry holding a wrong
  // energy, which a replay would hand back verbatim.
  const std::string path = dir + "/service.journal";
  std::vector<ckpt::JournalRecord> records = ckpt::Journal::replay_file(path);
  std::filesystem::remove(path);
  {
    ckpt::Journal journal(path);
    bool stamped = false;
    for (ckpt::JournalRecord record : records) {
      if (record.state == ckpt::JobState::kDone && record.job == "legacy") {
        RunResult stale = twin;
        stale.energy += 1.0;
        obs::json::Value doc = run_result_to_json(stale, record.job);
        doc.as_object().emplace_back("request_key",
                                     obs::json::Value(std::string(kOldFormatKey)));
        record.detail = doc.dump();
        stamped = true;
      }
      journal.append(std::move(record));
    }
    ASSERT_TRUE(stamped);
  }

  Service restarted(options);
  const ServeResult r = restarted.serve(make_request(mol, "legacy"));
  EXPECT_NE(r.path, ServePath::kReplayed);
  EXPECT_FALSE(r.from_journal);
  EXPECT_EQ(restarted.stats().replay_rejected, 1u);
  EXPECT_EQ(r.result.energy, twin.energy);
  EXPECT_EQ(r.result.born_sorted, twin.born_sorted);
  std::filesystem::remove_all(dir);
}

TEST(ServeTest, ServeReturnsTheCallersOwnResultByJobId) {
  // serve() must hand back the job it submitted — located by id in the
  // drained batch — even when earlier submissions are pending ahead of it.
  const Molecule early_mol = molgen::synthetic_protein(90, 71);
  const Molecule own_mol = molgen::synthetic_protein(100, 72);
  ServiceOptions options;
  options.campaign_dir = "-";
  options.delta_routing = false;
  Service service(options);
  service.submit(make_request(early_mol, "earlier"));
  const ServeResult r = service.serve(make_request(own_mol, "mine"));
  EXPECT_EQ(r.job_id, "mine");
  const RunResult twin = direct_cold(make_request(own_mol), options.run);
  EXPECT_EQ(r.result.energy, twin.energy);
  EXPECT_EQ(service.queued(), 0u);  // the earlier request was served too
  EXPECT_EQ(service.stats().served, 2u);
}

TEST(ServeTest, AccessorsAreSafeDuringAConcurrentDrain) {
  // The public accessors read cache/stat state under the same lock the
  // serving thread mutates it under; hammer them while a drain is running
  // (the tsan preset makes this a real race detector).
  ServiceOptions options;
  options.campaign_dir = "-";
  options.delta_routing = false;
  Service service(options);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i)
    service.submit(make_request(molgen::synthetic_protein(80, 400 + i)));

  std::atomic<bool> stop{false};
  std::thread reader([&service, &stop]() {
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.cache_entries();
      (void)service.cache_bytes();
      (void)service.stats();
      (void)service.queued();
    }
  });
  const std::vector<ServeResult> results = service.drain();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(results.size(), static_cast<std::size_t>(kRequests));
  EXPECT_EQ(service.stats().served, static_cast<std::uint64_t>(kRequests));
}

TEST(ServeTest, ServiceNeutralizesEngineLevelTraceAndCampaignRouting) {
  // The constructor pins BOTH engine-level destinations to "-" (explicit
  // off): per-request trace export and engine-level journaling would
  // double-route behind the service's own fields.
  ServiceOptions options;
  options.campaign_dir = "-";
  options.run.trace_out = "should_not_be_used.json";
  options.run.campaign_dir = "should_not_be_used";
  Service service(options);
  EXPECT_EQ(service.options().run.trace_out, "-");
  EXPECT_EQ(service.options().run.campaign_dir, "-");
  EXPECT_TRUE(resolved_trace_out(service.options().run).empty());
  EXPECT_TRUE(resolved_campaign_dir(service.options().run).empty());
}

TEST(ServeTest, UnroutableRunShapeThrowsAtConstruction) {
  // The constructor checks the run shape once through Engine's route(): a
  // shape no driver runs fails here, naming the field, rather than retrying
  // and then quarantining every request the service accepts. kAtomBased
  // with a scheduled death is refused: its plain collectives would fail
  // every request. Delta routing
  // runs TrajectoryDriver steps, which walk kList only, so a kRecursive
  // shape is refused with it on.
  const auto expect_refused = [](const ServiceOptions& o, const char* field) {
    try {
      Service service(o);
      ADD_FAILURE() << "Service accepted the shape refused on " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("RunOptions::") + field + ":"),
                std::string::npos)
          << e.what();
    }
  };
  ServiceOptions options;
  options.campaign_dir = "-";
  options.run = distributed_options(2);
  options.run.distribution = DataDistribution::kOwned;
  options.run.division = WorkDivision::kAtomBased;
  expect_refused(options, "division");
  options.run = distributed_options(2);
  options.run.division = WorkDivision::kAtomBased;
  options.run.faults.deaths.push_back({1, 0});  // no recovery on this shape
  expect_refused(options, "faults");
  options.run = distributed_options(2);
  options.run.traversal = TraversalMode::kRecursive;
  expect_refused(options, "traversal");
  options.run = serial_options(TraversalMode::kRecursive);
  ASSERT_TRUE(options.delta_routing);
  expect_refused(options, "traversal");
  options.delta_routing = false;  // the recursive baseline serves without it
  EXPECT_EQ(Service(options).serve(make_request(molgen::synthetic_protein(100, 13))).path,
            ServePath::kCold);
}

TEST(ServeTest, PooledRankExceptionFailsTheJobNotTheProcess) {
  // A pooled rank throwing a real exception must surface to run()'s caller
  // (so the campaign can quarantine the job) and leave the pool — and every
  // other tenant's queued work — alive.
  mpisim::PersistentPool pool(2);
  mpisim::Runtime::Config config;
  config.ranks = 2;
  EXPECT_THROW(pool.run(config,
                        [](mpisim::Comm& comm) {
                          if (comm.rank() == 1)
                            throw std::runtime_error("bad request");
                          // The peer parks in a collective and must be
                          // released by the failing rank's retirement.
                          comm.barrier();
                        }),
               std::runtime_error);

  // The pool survives and serves the next job normally.
  const mpisim::RunReport report =
      pool.run(config, [](mpisim::Comm& comm) { comm.barrier(); });
  EXPECT_FALSE(report.degraded);
  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_FALSE(report.ranks[0].died);
  EXPECT_FALSE(report.ranks[1].died);
  EXPECT_GE(pool.jobs_served(), 2u);
}

TEST(ServeTest, PooledDistributedServingIsBitIdenticalToUnpooled) {
  const Molecule mol = molgen::synthetic_protein(110, 53);
  ServiceOptions options;
  options.campaign_dir = "-";
  options.memoize_results = false;  // every serve really dispatches
  options.run = distributed_options(3);
  Service service(options);
  ASSERT_NE(service.pool(), nullptr);
  EXPECT_EQ(service.pool()->ranks(), 3);

  const RunResult twin = direct_cold(make_request(mol), options.run);

  service.submit(make_request(mol, "p0"));
  service.submit(make_request(jittered(mol, 1), "p1"));
  const std::vector<ServeResult> batch = service.drain();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].result.energy, twin.energy);
  ASSERT_EQ(batch[0].result.born_sorted, twin.born_sorted);
  ASSERT_EQ(batch[0].result.rank_results.size(), 3u);

  // Both requests rode one persistent-pool batch; a later drain is a new one.
  EXPECT_NE(batch[0].result.batch_id, 0u);
  EXPECT_EQ(batch[0].result.batch_id, batch[1].result.batch_id);
  const ServeResult later = service.serve(make_request(jittered(mol, 2)));
  EXPECT_NE(later.result.batch_id, batch[0].result.batch_id);
  EXPECT_GE(service.pool()->jobs_served(), 3u);
  EXPECT_EQ(service.stats().batches, 2u);

  // The jittered pose's direct twin (no pool, fresh threads) agrees too.
  const RunResult jtwin =
      direct_cold(make_request(jittered(mol, 2)), options.run);
  EXPECT_EQ(later.result.energy, jtwin.energy);
  ASSERT_EQ(later.result.born_sorted, jtwin.born_sorted);
}

}  // namespace
}  // namespace gbpol
