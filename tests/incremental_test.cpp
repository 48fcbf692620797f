// Incremental trajectory engine (core/incremental.hpp): the differential
// cold-vs-incremental battery pinning the reuse machinery to 0 ulp.
//
//  * Golden-molecule trajectories with perturbation magnitudes straddling
//    the skin margin, in serial, distributed-replicated and owned modes:
//    a ReuseMode::kIncremental driver and a ReuseMode::kCold driver agree
//    bit-for-bit on energy and Born radii at every step (<= 1e-12 was the
//    contract; sharing the deterministic anchor recipe delivers exact 0 ulp).
//  * Serial steps against a plain Engine::run over the driver's Prepared:
//    Born radii and energy bit-identical.
//  * A kRecursive step throws, naming RunOptions::traversal, before the
//    driver's state advances.
//  * Skin-margin property: a structural re-anchor happens iff a moved atom's
//    displacement from its anchor exceeds its leaf margin; dirty_leaves == 0
//    implies a bitwise-identical energy.
//  * 50-schedule seeded perturbation soak with a kill/restart in the middle
//    of each campaign: the journal replays completed steps and the remaining
//    live steps are bit-identical to an uninterrupted run.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/interaction_lists.hpp"
#include "molecule/generate.hpp"

namespace gbpol {
namespace {

struct Golden {
  std::uint32_t n_atoms;
  std::uint64_t seed;
};

// The committed golden-reference molecules (tests/golden_energy_test.cpp).
constexpr Golden kGolden[] = {{400, 21}, {1200, 22}, {3000, 23}};

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform_pm1(std::uint64_t& state) {
  return 2.0 * (static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53) - 1.0;
}

std::vector<Vec3> initial_positions(const Molecule& mol) {
  std::vector<Vec3> pos(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) pos[i] = mol.atom(i).pos;
  return pos;
}

// Perturbation schedule straddling the skin margin: most steps jiggle a
// subset of atoms well below the 0.3 A skin, every third step kicks a few
// atoms far past it so re-anchoring structural rebuilds are exercised too.
void perturb(std::vector<Vec3>& pos, std::uint64_t& rng, int step) {
  const bool big = step % 3 == 2;
  const double magnitude = big ? 0.8 : 0.05;
  const std::size_t stride = big ? 17 : 5;
  for (std::size_t i = step % stride; i < pos.size(); i += stride) {
    pos[i].x += magnitude * uniform_pm1(rng);
    pos[i].y += magnitude * uniform_pm1(rng);
    pos[i].z += magnitude * uniform_pm1(rng);
  }
}

void expect_bit_identical(const RunResult& a, const RunResult& b, int step) {
  ASSERT_EQ(a.energy, b.energy) << "step " << step;
  ASSERT_EQ(a.born_sorted.size(), b.born_sorted.size()) << "step " << step;
  for (std::size_t i = 0; i < a.born_sorted.size(); ++i)
    ASSERT_EQ(a.born_sorted[i], b.born_sorted[i])
        << "step " << step << " born slot " << i;
}

RunOptions incremental_options(const RunOptions& base) {
  RunOptions o = base;
  o.reuse = ReuseMode::kIncremental;
  return o;
}

RunOptions cold_options(const RunOptions& base) {
  RunOptions o = base;
  o.reuse = ReuseMode::kCold;
  return o;
}

// Runs the same schedule through an incremental and a cold driver under
// `base` options and pins every step to 0 ulp.
void differential_battery(const Golden& g, const RunOptions& base, int steps,
                          const TrajectoryOptions& topt = {}) {
  const Molecule mol = molgen::synthetic_protein(g.n_atoms, g.seed);
  TrajectoryDriver inc(mol, topt);
  TrajectoryDriver cold(mol, topt);

  std::vector<Vec3> pos = initial_positions(mol);
  std::uint64_t rng = 0x5eed0000 + g.seed;
  for (int s = 0; s < steps; ++s) {
    if (s > 0) perturb(pos, rng, s);
    const RunResult ri = inc.step(pos, incremental_options(base));
    const RunResult rc = cold.step(pos, cold_options(base));
    expect_bit_identical(ri, rc, s);
    // Cold steps report zero reuse by construction.
    EXPECT_EQ(rc.reused_fraction, 0.0) << "step " << s;
  }
}

TEST(IncrementalDifferential, SerialGoldenMolecules) {
  for (const Golden& g : kGolden) differential_battery(g, serial_options(), 6);
}

TEST(IncrementalDifferential, SerialWithResurfaceCadence) {
  TrajectoryOptions topt;
  topt.resurface_every = 3;  // crosses a full re-march inside the schedule
  differential_battery(kGolden[0], serial_options(), 7, topt);
}

TEST(IncrementalDifferential, DistributedReplicated) {
  const RunOptions base = distributed_options(3);
  differential_battery(kGolden[0], base, 4);
  differential_battery(kGolden[1], base, 4);
}

TEST(IncrementalDifferential, OwnedMode) {
  RunOptions base = distributed_options(3);
  base.distribution = DataDistribution::kOwned;
  differential_battery(kGolden[0], base, 4);
  differential_battery(kGolden[2], base, 3);
}

// Serial trajectory steps against a plain Engine::run over the driver's own
// Prepared: identical Born and energy bits. Each E_pol near entry's kernel
// returns its own sum, so the per-entry partials added in ascending order
// repeat the walk's running fold.
TEST(IncrementalDifferential, SerialMatchesPlainEngine) {
  const Molecule mol = molgen::synthetic_protein(kGolden[1].n_atoms,
                                                 kGolden[1].seed);
  TrajectoryDriver driver(mol);
  std::vector<Vec3> pos = initial_positions(mol);
  std::uint64_t rng = 77;
  for (int s = 0; s < 5; ++s) {
    if (s > 0) perturb(pos, rng, s);
    const RunResult traj = driver.step(pos, serial_options());
    const RunResult plain =
        Engine(driver.prepared()).run(serial_options());
    ASSERT_EQ(traj.born_sorted.size(), plain.born_sorted.size());
    for (std::size_t i = 0; i < traj.born_sorted.size(); ++i)
      ASSERT_EQ(traj.born_sorted[i], plain.born_sorted[i])
          << "step " << s << " born slot " << i;
    EXPECT_EQ(traj.energy, plain.energy) << "step " << s;
  }
}

// The caches hold walk lists, so a recursive request is refused — on the
// serial shape and on every other — and the refused step leaves the driver
// where it was: the next kList step matches a fresh driver's first step.
TEST(IncrementalDifferential, RecursiveTraversalThrowsBeforeTheStateAdvances) {
  const Molecule mol = molgen::synthetic_protein(kGolden[0].n_atoms, kGolden[0].seed);
  TrajectoryDriver driver(mol);
  std::vector<Vec3> pos = initial_positions(mol);
  std::uint64_t rng = 5;
  perturb(pos, rng, 2);
  for (RunOptions o : {serial_options(), distributed_options(3)}) {
    o.traversal = TraversalMode::kRecursive;
    try {
      (void)driver.step(pos, o);
      ADD_FAILURE() << "step accepted kRecursive";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("RunOptions::traversal:"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(driver.step_index(), 0u);
  TrajectoryDriver fresh(mol);
  expect_bit_identical(driver.step(pos, serial_options()),
                       fresh.step(pos, serial_options()), 0);
}

// Cross-mode: a replicated trajectory step lands within reassociation
// distance of the serial trajectory's energy at the same frame.
TEST(IncrementalDifferential, SerialVsReplicatedEnergies) {
  const Molecule mol = molgen::synthetic_protein(400, 21);
  TrajectoryDriver serial_driver(mol);
  TrajectoryDriver dist_driver(mol);
  const RunOptions dist = distributed_options(3);

  std::vector<Vec3> pos = initial_positions(mol);
  std::uint64_t rng = 99;
  for (int s = 0; s < 4; ++s) {
    if (s > 0) perturb(pos, rng, s);
    const RunResult a = serial_driver.step(pos, serial_options());
    const RunResult b = dist_driver.step(pos, dist);
    EXPECT_NEAR(a.energy, b.energy, 1e-12 * std::abs(a.energy)) << "step " << s;
  }
}

// --- skin-margin property ---------------------------------------------------

std::uint32_t slot_of_atom(const Prepared& prep, std::uint32_t orig) {
  const auto perm = prep.atoms_tree.permutation();
  for (std::uint32_t slot = 0; slot < perm.size(); ++slot)
    if (perm[slot] == orig) return slot;
  ADD_FAILURE() << "atom not found in permutation";
  return 0;
}

std::uint32_t leaf_of_slot(const Prepared& prep, std::uint32_t slot) {
  for (const std::uint32_t leaf_id : prep.atoms_tree.leaves()) {
    const OctreeNode& node = prep.atoms_tree.node(leaf_id);
    if (slot >= node.begin && slot < node.end) return leaf_id;
  }
  ADD_FAILURE() << "slot not covered by any leaf";
  return 0;
}

TEST(IncrementalProperty, LeafReanchorsIffMarginCrossed) {
  // Large enough that a single-atom move cannot dirty every leaf: the
  // sub-margin trials also pin that cached work was actually reused.
  const Molecule mol = molgen::synthetic_protein(900, 7);
  TrajectoryOptions topt;
  topt.surface.grid_spacing = 2.0;  // coarse surface keeps the case fast
  std::uint64_t rng = 4242;
  for (int trial = 0; trial < 8; ++trial) {
    TrajectoryDriver driver(mol, topt);
    std::vector<Vec3> pos = initial_positions(mol);
    driver.step(pos, serial_options());  // cold-start step; caches now warm
    const auto orig = static_cast<std::uint32_t>(
        splitmix64(rng) % mol.size());
    const std::uint32_t leaf =
        leaf_of_slot(driver.prepared(), slot_of_atom(driver.prepared(), orig));
    const double margin = driver.atom_leaf_margin(leaf);
    ASSERT_GT(margin, 0.0);

    const bool cross = trial % 2 == 1;
    const double d = margin * (cross ? 1.02 : 0.98);
    pos[orig].x += d;  // axis-aligned: displacement from anchor == d exactly
    const RunResult r = driver.step(pos, serial_options());
    EXPECT_EQ(driver.last_stats().re_anchored, cross)
        << "trial " << trial << " margin " << margin;
    if (cross) {
      EXPECT_GE(driver.last_stats().re_anchored_leaves, 1u);
    } else {
      EXPECT_EQ(r.lists_rebuilt, 0u);
      EXPECT_GT(r.reused_fraction, 0.0);
    }
  }
}

// The E_pol near list keeps one entry per mirrored leaf pair, at weight 2.
// A sub-margin move of one buried atom touches exactly one leaf; whenever
// that leaf is one side of a kept mirrored entry — its target in one step,
// its source in another — the entry is refreshed from that side alone, and
// the incremental step matches a kCold twin at 0 ulp.
TEST(IncrementalProperty, OneSidedTouchOfMirroredEntryMatchesCold) {
  const Molecule mol = molgen::synthetic_protein(900, 7);
  TrajectoryOptions topt;
  topt.surface.grid_spacing = 2.0;
  TrajectoryDriver inc(mol, topt);
  TrajectoryDriver cold(mol, topt);
  std::vector<Vec3> pos = initial_positions(mol);
  int step = 0;
  expect_bit_identical(inc.step(pos, incremental_options(serial_options())),
                       cold.step(pos, cold_options(serial_options())), step++);

  const Octree& tree = inc.prepared().atoms_tree;
  const InteractionLists lists = build_interaction_lists(
      tree, tree,
      {.far_multiplier = ApproxParams{}.epol_far_multiplier(),
       .exact_at_target_leaf = true,
       .source_leaf_lo = 0,
       .source_leaf_hi = static_cast<std::uint32_t>(tree.leaves().size())});
  std::vector<char> mirrored_target(tree.nodes().size(), 0);
  std::vector<char> mirrored_source(tree.nodes().size(), 0);
  for (const InteractionLists::Near& e : lists.near) {
    if (!e.mirrored) continue;
    mirrored_target[e.target_leaf] = 1;
    mirrored_source[e.source_leaf] = 1;
  }

  // Most buried atoms first: they carry no surface points, so moving one
  // changes only its own leaf's positions and Born radii.
  Vec3 center;
  for (const Vec3& p : pos) center += p;
  center = center / static_cast<double>(pos.size());
  std::vector<std::uint32_t> order(pos.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return distance2(pos[a], center) < distance2(pos[b], center);
  });

  bool as_target = false, as_source = false;
  for (std::size_t k = 0; k < 40 && !(as_target && as_source); ++k) {
    const std::uint32_t orig = order[k];
    const std::uint32_t leaf =
        leaf_of_slot(inc.prepared(), slot_of_atom(inc.prepared(), orig));
    if (!(mirrored_target[leaf] && !as_target) && !(mirrored_source[leaf] && !as_source))
      continue;
    pos[orig].x += 0.25 * inc.atom_leaf_margin(leaf);
    const RunResult ri = inc.step(pos, incremental_options(serial_options()));
    const RunResult rc = cold.step(pos, cold_options(serial_options()));
    expect_bit_identical(ri, rc, step++);
    ASSERT_FALSE(inc.last_stats().re_anchored);
    if (inc.last_stats().epol_touched_leaves != 1) continue;
    as_target = as_target || mirrored_target[leaf];
    as_source = as_source || mirrored_source[leaf];
  }
  EXPECT_TRUE(as_target) << "no one-leaf step touched a mirrored entry's target";
  EXPECT_TRUE(as_source) << "no one-leaf step touched a mirrored entry's source";
}

TEST(IncrementalProperty, NoDirtyLeavesImpliesBitIdenticalEnergy) {
  const Molecule mol = molgen::synthetic_protein(200, 11);
  TrajectoryOptions topt;
  topt.surface.grid_spacing = 2.0;
  TrajectoryDriver driver(mol, topt);
  std::vector<Vec3> pos = initial_positions(mol);
  const RunResult first = driver.step(pos, serial_options());
  EXPECT_GT(first.dirty_leaves, 0u);  // cold-start step evaluates everything

  // Bit-identical positions: zero moved atoms, zero dirty leaves, and the
  // energy reproduces to the bit.
  const RunResult repeat = driver.step(pos, serial_options());
  EXPECT_EQ(driver.last_stats().moved_atoms, 0u);
  EXPECT_EQ(repeat.dirty_leaves, 0u);
  ASSERT_EQ(repeat.energy, first.energy);
  EXPECT_EQ(repeat.reused_fraction, 1.0);

  // Any bitwise position change dirties at least one leaf.
  pos[0].x += 1e-9;
  const RunResult moved = driver.step(pos, serial_options());
  EXPECT_GT(moved.dirty_leaves, 0u);
}

// --- seeded perturbation soak with kill/restart -----------------------------

TEST(IncrementalSoak, FiftyScheduleKillRestartResume) {
  const int kSchedules = 50;
  const int kSteps = 5;
  const int kKillAfter = 3;
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "gbpol_incr_soak";
  std::filesystem::remove_all(root);

  for (int sched = 0; sched < kSchedules; ++sched) {
    const Molecule mol =
        molgen::synthetic_protein(120, 1000 + static_cast<std::uint64_t>(sched));
    TrajectoryOptions topt;
    topt.surface.grid_spacing = 2.2;

    // Precompute the schedule so all three drivers see identical frames.
    std::vector<std::vector<Vec3>> frames;
    std::vector<Vec3> pos = initial_positions(mol);
    std::uint64_t rng = 0xabcdef + static_cast<std::uint64_t>(sched);
    for (int s = 0; s < kSteps; ++s) {
      if (s > 0) perturb(pos, rng, s);
      frames.push_back(pos);
    }

    // Uninterrupted reference (no journal), incremental mode.
    TrajectoryDriver ref(mol, topt);
    std::vector<RunResult> ref_results;
    for (int s = 0; s < kSteps; ++s)
      ref_results.push_back(ref.step(frames[s], serial_options()));

    // Campaign A runs the first kKillAfter steps, then dies (destructor —
    // the journal is flushed per append, so a hard kill loses nothing more).
    const std::filesystem::path dir = root / ("sched" + std::to_string(sched));
    std::filesystem::create_directories(dir);
    TrajectoryOptions jopt = topt;
    jopt.campaign_dir = dir.string();
    {
      TrajectoryDriver a(mol, jopt);
      for (int s = 0; s < kKillAfter; ++s) {
        const RunResult r = a.step(frames[s], serial_options());
        expect_bit_identical(r, ref_results[s], s);
      }
    }

    // Campaign B restarts from the journal: completed steps replay without
    // evaluation (returning the journaled energy bits), live steps resume
    // bit-identically to the uninterrupted reference.
    TrajectoryDriver b(mol, jopt);
    for (int s = 0; s < kSteps; ++s) {
      const RunResult r = b.step(frames[s], serial_options());
      if (s < kKillAfter) {
        EXPECT_TRUE(r.resumed) << "sched " << sched << " step " << s;
        ASSERT_EQ(r.energy, ref_results[s].energy)
            << "sched " << sched << " replayed step " << s;
      } else {
        EXPECT_FALSE(r.resumed) << "sched " << sched << " step " << s;
        expect_bit_identical(r, ref_results[s], s);
      }
    }
  }
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace gbpol
