// The list engine's contract (core/interaction_lists.hpp): the flat near/far
// lists reproduce the recursive engines' decomposition exactly, so Born radii
// and E_pol match TraversalMode::kRecursive to <= 1e-12 relative error,
// arbitrary list segmentations sum to the whole, the E_pol self-walk
// evaluates every mirrored near pair exactly once under any chunk cut,
// evaluation during the walk equals list evaluation at 0 ulp, and a build
// stores its lists at their exact size.
#include "core/interaction_lists.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/born_octree.hpp"
#include "core/engine.hpp"
#include "core/epol_octree.hpp"
#include "support/memtrack.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::make_fixture;
using testing::naive_born_sorted;
using testing::workload_molecules;

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;
}

std::vector<double> born_via_recursive(const Fixture& f, const ApproxParams& params) {
  const BornSolver solver(f.prep, params);
  BornAccumulator acc = solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  solver.accumulate_qleaf_range(0, n_qleaves, acc);
  std::vector<double> born(f.prep.num_atoms());
  solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
  return born;
}

std::vector<double> born_via_lists(const Fixture& f, const ApproxParams& params) {
  const BornSolver solver(f.prep, params);
  BornAccumulator acc = solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const InteractionLists lists = solver.build_lists(0, n_qleaves);
  solver.accumulate_lists(lists, acc);
  std::vector<double> born(f.prep.num_atoms());
  solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
  return born;
}

class InteractionListsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixtures_ = new std::vector<Fixture>();
    fixtures_->push_back(make_fixture(300, 3));
    fixtures_->push_back(make_fixture(700, 7));
    fixtures_->push_back(make_fixture(500, 11, /*leaf_capacity=*/8));
  }
  static void TearDownTestSuite() { delete fixtures_; }
  static const std::vector<Fixture>& fixtures() { return *fixtures_; }

  static std::vector<Fixture>* fixtures_;
};
std::vector<Fixture>* InteractionListsTest::fixtures_ = nullptr;

// Born radii: list engine == recursive engine across molecules x kernels x
// dipole correction. The serial list build emits entries in recursion visit
// order and far/near terms land in disjoint accumulator slots, so the match
// is bit-level; 1e-12 is the contract we pin.
TEST_F(InteractionListsTest, BornRadiiMatchRecursiveAcrossVariants) {
  for (const Fixture& f : fixtures()) {
    for (const RadiusKernel kernel : {RadiusKernel::kR6, RadiusKernel::kR4}) {
      for (const bool dipole : {false, true}) {
        ApproxParams params;
        params.radius_kernel = kernel;
        params.born_dipole_correction = dipole;
        const std::vector<double> rec = born_via_recursive(f, params);
        const std::vector<double> lst = born_via_lists(f, params);
        ASSERT_EQ(rec.size(), lst.size());
        for (std::size_t i = 0; i < rec.size(); ++i) {
          EXPECT_LE(rel_diff(rec[i], lst[i]), 1e-12)
              << "atom slot " << i << " kernel=" << (kernel == RadiusKernel::kR6 ? "r6" : "r4")
              << " dipole=" << dipole;
        }
      }
    }
  }
}

// E_pol: list engine == recursive engine, with exact and approximate math.
// E_pol: list engine == recursive engine, with exact and approximate math,
// on the fixtures and on workload-shaped molecules, where most near entries
// have a mirror (the list engine evaluates each mirrored leaf pair once at
// weight 2, the recursive engine both orderings). The workload molecules'
// Born radii are synthetic, a spread around each atom's intrinsic radius:
// the property is about the pair decomposition, not the radii.
TEST_F(InteractionListsTest, EpolMatchesRecursiveAcrossVariants) {
  const auto check = [](const Prepared& prep, const std::vector<double>& born) {
    for (const bool approx_math : {false, true}) {
      for (const double eps : {0.3, 0.9}) {
        ApproxParams params;
        params.approx_math = approx_math;
        params.eps_epol = eps;
        const EpolSolver solver(prep, born, params, GBConstants{});
        const auto n = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
        const double rec = solver.energy_for_leaf_range(0, n);
        const double lst = solver.energy_from_lists(solver.build_lists(0, n));
        EXPECT_LE(rel_diff(rec, lst), 1e-12)
            << "approx_math=" << approx_math << " eps=" << eps;
      }
    }
  };
  for (const Fixture& f : fixtures()) {
    SCOPED_TRACE("fixture " + std::to_string(f.mol.size()) + " atoms");
    check(f.prep, naive_born_sorted(f));
  }
  for (const Molecule& mol : workload_molecules()) {
    SCOPED_TRACE("workload " + std::to_string(mol.size()) + " atoms");
    const surface::QuadratureParams coarse{.grid_spacing = 2.0, .dunavant_degree = 1};
    const Prepared prep = Prepared::build(mol, surface::molecular_surface_quadrature(mol, coarse),
                                          ApproxParams{}.leaf_capacity);
    std::vector<double> born(prep.num_atoms());
    for (std::size_t i = 0; i < born.size(); ++i)
      born[i] = prep.intrinsic_radius[i] *
                (1.2 + 0.8 * std::fmod(0.618 * static_cast<double>(i), 1.0));
    check(prep, born);
  }
}

// Splitting either list at arbitrary points and evaluating the segments on
// separate accumulators must merge to the whole-list result — the property
// chunked list evaluation relies on.
TEST_F(InteractionListsTest, ListSegmentsComposeExactly) {
  const Fixture& f = fixtures()[0];
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const InteractionLists lists = solver.build_lists(0, n_qleaves);

  BornAccumulator whole = solver.make_accumulator();
  solver.accumulate_lists(lists, whole);

  BornAccumulator merged = solver.make_accumulator();
  {
    BornAccumulator part = solver.make_accumulator();
    const std::size_t fcut = lists.far.size() / 3;
    const std::size_t ncut = 2 * lists.near.size() / 3;
    solver.accumulate_far_range(lists, 0, fcut, merged);
    solver.accumulate_far_range(lists, fcut, lists.far.size(), part);
    solver.accumulate_near_range(lists, 0, ncut, part);
    solver.accumulate_near_range(lists, ncut, lists.near.size(), merged);
    merged.add(part);
  }
  const auto whole_flat = whole.flat();
  const auto merged_flat = merged.flat();
  ASSERT_EQ(whole_flat.size(), merged_flat.size());
  for (std::size_t i = 0; i < whole_flat.size(); ++i)
    EXPECT_LE(rel_diff(whole_flat[i], merged_flat[i]), 1e-12) << "slot " << i;

  const std::vector<double> born = naive_born_sorted(f);
  const EpolSolver epol(f.prep, born, params, GBConstants{});
  const auto n_aleaves = static_cast<std::uint32_t>(f.prep.atoms_tree.leaves().size());
  const InteractionLists elists = epol.build_lists(0, n_aleaves);
  const double whole_e = epol.energy_from_lists(elists);
  const std::size_t fcut = elists.far.size() / 2;
  const std::size_t ncut = elists.near.size() / 2;
  const double split_e = epol.energy_far_range(elists, 0, fcut) +
                         epol.energy_far_range(elists, fcut, elists.far.size()) +
                         epol.energy_near_range(elists, 0, ncut) +
                         epol.energy_near_range(elists, ncut, elists.near.size());
  EXPECT_LE(rel_diff(whole_e, split_e), 1e-12);
}

// Leaf-range restrictions must partition: lists built for [0,k) and [k,n)
// together cover exactly the full-range list.
TEST_F(InteractionListsTest, LeafRangePartitionCoversFullList) {
  const Fixture& f = fixtures()[2];
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const std::uint32_t cut = n / 2;
  const InteractionLists full = solver.build_lists(0, n);
  const InteractionLists lo = solver.build_lists(0, cut);
  const InteractionLists hi = solver.build_lists(cut, n);
  ASSERT_EQ(full.far.size(), lo.far.size() + hi.far.size());
  ASSERT_EQ(full.near.size(), lo.near.size() + hi.near.size());
  EXPECT_EQ(full.near_point_pairs, lo.near_point_pairs + hi.near_point_pairs);
  for (std::size_t i = 0; i < full.far.size(); ++i) {
    const InteractionLists::Far& part =
        i < lo.far.size() ? lo.far[i] : hi.far[i - lo.far.size()];
    ASSERT_EQ(full.far[i].target_node, part.target_node) << i;
    ASSERT_EQ(full.far[i].source_leaf, part.source_leaf) << i;
  }
}

// The counting walk shares the list build's recursion, so for every source
// leaf of a sub-range its near row is the near entries' target leaves in
// emission order, and its interaction count is the near point pairs plus the
// far entries' source points. Checked under the Born (far test first) and
// E_pol (target leaves exact) parameters, on both source trees.
TEST_F(InteractionListsTest, LeafWalkMatchesListBuildPerSourceLeaf) {
  ApproxParams params;
  for (const Fixture& f : fixtures()) {
    const Octree& atoms = f.prep.atoms_tree;
    std::vector<std::uint32_t> leaf_ordinal(atoms.nodes().size(), 0);
    for (std::uint32_t i = 0; i < atoms.leaves().size(); ++i)
      leaf_ordinal[atoms.leaves()[i]] = i;

    for (const bool exact : {false, true}) {
      const Octree& source = exact ? atoms : f.prep.q_tree;
      const auto n = static_cast<std::uint32_t>(source.leaves().size());
      ASSERT_GE(n, 4u);
      const ListBuildParams lp{
          .far_multiplier = exact ? params.epol_far_multiplier()
                                  : params.born_far_multiplier(),
          .exact_at_target_leaf = exact,
          .source_leaf_lo = n / 4,
          .source_leaf_hi = n - n / 4};
      SCOPED_TRACE(std::string(exact ? "epol" : "born") + " leaves [" +
                   std::to_string(lp.source_leaf_lo) + ", " +
                   std::to_string(lp.source_leaf_hi) + ")");
      const LeafWalk walk = walk_source_leaves(atoms, source, lp);
      const std::uint32_t rows = lp.source_leaf_hi - lp.source_leaf_lo;
      ASSERT_EQ(walk.interactions.size(), rows);
      ASSERT_EQ(walk.near_start.size(), rows + 1);
      EXPECT_EQ(walk.near_start.front(), 0u);
      EXPECT_EQ(walk.near_start.back(), walk.near_targets.size());

      std::uint64_t near_entries = 0;
      for (std::uint32_t i = 0; i < rows; ++i) {
        const std::uint32_t leaf = lp.source_leaf_lo + i;
        ListBuildParams one = lp;
        one.source_leaf_lo = leaf;
        one.source_leaf_hi = leaf + 1;
        const InteractionLists lists = build_interaction_lists(atoms, source, one);
        const std::uint32_t src_points = source.node(source.leaves()[leaf]).count();

        std::vector<std::uint32_t> expected_row;
        for (const InteractionLists::Near& nr : lists.near)
          expected_row.push_back(leaf_ordinal[nr.target_leaf]);
        const auto row = walk.near_row(i);
        EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), expected_row)
            << "source leaf " << leaf;
        EXPECT_EQ(walk.interactions[i],
                  lists.near_point_pairs +
                      static_cast<std::uint64_t>(lists.far.size()) * src_points)
            << "source leaf " << leaf;
        near_entries += lists.near.size();
      }
      EXPECT_EQ(walk.near_targets.size(), near_entries);
      EXPECT_GT(near_entries, 0u);
    }
  }
}

// Atom octrees at the default leaf capacity: the fixtures' and the
// workload-shaped molecules' (where most near entries have a mirror).
struct AtomTree {
  std::string name;
  Octree tree;
  bool workload = false;
};

std::vector<AtomTree> atom_trees(const std::vector<Fixture>& fixtures) {
  std::vector<AtomTree> out;
  for (std::size_t i = 0; i < fixtures.size(); ++i)
    out.push_back({"fixture " + std::to_string(i), fixtures[i].prep.atoms_tree});
  Octree::BuildParams bp;
  bp.leaf_capacity = ApproxParams{}.leaf_capacity;
  for (const Molecule& mol : workload_molecules()) {
    std::vector<Vec3> pos(mol.size());
    for (std::size_t a = 0; a < mol.size(); ++a) pos[a] = mol.atom(a).pos;
    out.push_back({"workload " + std::to_string(mol.size()) + " atoms",
                   Octree::build(pos, bp), true});
  }
  return out;
}

ListBuildParams epol_walk(std::uint32_t lo, std::uint32_t hi, bool ordered_pairs) {
  return {.far_multiplier = ApproxParams{}.epol_far_multiplier(),
          .exact_at_target_leaf = true,
          .source_leaf_lo = lo,
          .source_leaf_hi = hi,
          .ordered_pairs = ordered_pairs};
}

std::uint64_t unordered_key(const InteractionLists::Near& e) {
  const std::uint64_t a = std::min(e.target_leaf, e.source_leaf);
  const std::uint64_t b = std::max(e.target_leaf, e.source_leaf);
  return a << 32 | b;
}

// Against the walk that keeps every ordered pair, the E_pol self-walk keeps
// each unordered off-diagonal leaf pair in exactly one entry, flagged
// mirrored iff both orderings are near, and diagonal entries at weight 1;
// far entries are untouched. Lists built over any cut of the source leaves
// concatenate to the full list entry for entry, so every chunking evaluates
// each pair exactly once. On the workload molecules the halving removes
// over a third of the exact point pairs, and the kept entries sit in the
// lower and the higher id's row about equally often.
TEST_F(InteractionListsTest, MirroredNearPairsAreEvaluatedExactlyOnce) {
  for (const AtomTree& at : atom_trees(fixtures())) {
    SCOPED_TRACE(at.name);
    const Octree& tree = at.tree;
    const auto n = static_cast<std::uint32_t>(tree.leaves().size());
    const InteractionLists full = build_interaction_lists(tree, tree, epol_walk(0, n, true));
    const InteractionLists half = build_interaction_lists(tree, tree, epol_walk(0, n, false));

    std::unordered_map<std::uint64_t, int> ordered_entries, kept_entries, kept_weight;
    for (const InteractionLists::Near& e : full.near) {
      ASSERT_FALSE(e.mirrored);
      ++ordered_entries[unordered_key(e)];
    }
    std::uint64_t kept_pairs = 0, mirrored = 0, mirrored_in_lower_row = 0;
    for (const InteractionLists::Near& e : half.near) {
      if (e.mirrored) {
        EXPECT_NE(e.target_leaf, e.source_leaf);
        ++mirrored;
        mirrored_in_lower_row += e.source_leaf < e.target_leaf;
      }
      ++kept_entries[unordered_key(e)];
      kept_weight[unordered_key(e)] += e.mirrored ? 2 : 1;
      kept_pairs += static_cast<std::uint64_t>(tree.node(e.target_leaf).count()) *
                    tree.node(e.source_leaf).count();
    }
    EXPECT_EQ(kept_weight, ordered_entries);
    for (const auto& [key, entries] : kept_entries) ASSERT_EQ(entries, 1) << key;
    EXPECT_EQ(half.near_point_pairs, kept_pairs);
    ASSERT_EQ(half.far.size(), full.far.size());
    for (std::size_t i = 0; i < full.far.size(); ++i) {
      ASSERT_EQ(half.far[i].target_node, full.far[i].target_node) << i;
      ASSERT_EQ(half.far[i].source_leaf, full.far[i].source_leaf) << i;
    }
    if (at.workload) {
      EXPECT_LT(static_cast<double>(half.near_point_pairs),
                0.66 * static_cast<double>(full.near_point_pairs));
      // The kept row splits mirrored work evenly: no bias to either id.
      const double lower_share =
          static_cast<double>(mirrored_in_lower_row) / static_cast<double>(mirrored);
      EXPECT_GT(lower_share, 0.4);
      EXPECT_LT(lower_share, 0.6);
    }

    for (const std::uint32_t chunks : {2u, 3u, 7u}) {
      std::vector<InteractionLists::Near> joined;
      for (std::uint32_t c = 0; c < chunks; ++c) {
        const InteractionLists part = build_interaction_lists(
            tree, tree, epol_walk(n * c / chunks, n * (c + 1) / chunks, false));
        joined.insert(joined.end(), part.near.begin(), part.near.end());
      }
      ASSERT_EQ(joined.size(), half.near.size()) << chunks << " chunks";
      for (std::size_t i = 0; i < joined.size(); ++i) {
        ASSERT_EQ(joined[i].target_leaf, half.near[i].target_leaf) << i;
        ASSERT_EQ(joined[i].source_leaf, half.near[i].source_leaf) << i;
        ASSERT_EQ(joined[i].mirrored, half.near[i].mirrored) << i;
      }
    }
  }
}

// Planning prices what the lists evaluate: on the workload-shaped
// molecules, every source leaf's LeafWalk row (near targets and interaction
// count) equals the built E_pol list's row, mirrored pairs counted once.
TEST_F(InteractionListsTest, LeafWalkRowsMatchMirroredListRows) {
  for (const AtomTree& at : atom_trees(fixtures())) {
    if (!at.workload) continue;
    SCOPED_TRACE(at.name);
    const Octree& tree = at.tree;
    const auto leaves = tree.leaves();
    const auto n = static_cast<std::uint32_t>(leaves.size());
    std::vector<std::uint32_t> leaf_ordinal(tree.nodes().size(), 0);
    for (std::uint32_t i = 0; i < n; ++i) leaf_ordinal[leaves[i]] = i;

    const LeafWalk walk = walk_source_leaves(tree, tree, epol_walk(0, n, false));
    const InteractionLists lists = build_interaction_lists(tree, tree, epol_walk(0, n, false));
    std::vector<std::vector<std::uint32_t>> rows(n);
    std::vector<std::uint64_t> interactions(n, 0);
    std::vector<std::uint32_t> row_of_node(tree.nodes().size(), 0);
    for (std::uint32_t i = 0; i < n; ++i) row_of_node[leaves[i]] = i;
    for (const InteractionLists::Near& e : lists.near) {
      const std::uint32_t r = row_of_node[e.source_leaf];
      rows[r].push_back(leaf_ordinal[e.target_leaf]);
      interactions[r] += static_cast<std::uint64_t>(tree.node(e.target_leaf).count()) *
                         tree.node(e.source_leaf).count();
    }
    for (const InteractionLists::Far& e : lists.far)
      interactions[row_of_node[e.source_leaf]] += tree.node(e.source_leaf).count();

    ASSERT_EQ(walk.interactions.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto row = walk.near_row(i);
      ASSERT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), rows[i]) << "leaf " << i;
      ASSERT_EQ(walk.interactions[i], interactions[i]) << "leaf " << i;
    }
  }
}

std::uint64_t bits_of(double d) { return std::bit_cast<std::uint64_t>(d); }

// Source-leaf cuts of [0, n): the whole range, then 2, 3 and 7 chunks.
std::vector<std::vector<std::uint32_t>> leaf_cuts(std::uint32_t n) {
  std::vector<std::vector<std::uint32_t>> cuts;
  for (const std::uint32_t chunks : {1u, 2u, 3u, 7u}) {
    std::vector<std::uint32_t> bounds;
    for (std::uint32_t c = 0; c <= chunks; ++c) bounds.push_back(n * c / chunks);
    cuts.push_back(bounds);
  }
  return cuts;
}

void expect_same_bits(std::span<const double> walk, std::span<const double> list,
                      const char* what) {
  ASSERT_EQ(walk.size(), list.size());
  for (std::size_t i = 0; i < walk.size(); ++i)
    ASSERT_EQ(bits_of(walk[i]), bits_of(list[i])) << what << " slot " << i;
}

// Walk evaluation (what every Engine pass runs) equals build_lists + the
// range evaluators at 0 ulp: Born node_s and atom_s separately, for r6/r4
// with the dipole correction on and off, over every chunk of several
// source-leaf cuts; and one accumulator continued across a cut's chunks
// equals one pass over the whole list.
TEST_F(InteractionListsTest, BornWalkEvaluationMatchesListsBitwise) {
  for (const Fixture& f : fixtures()) {
    const auto n = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
    const std::size_t n_nodes = f.prep.atoms_tree.nodes().size();
    for (const RadiusKernel kernel : {RadiusKernel::kR6, RadiusKernel::kR4}) {
      for (const bool dipole : {false, true}) {
        SCOPED_TRACE(std::to_string(f.mol.size()) + " atoms, " +
                     (kernel == RadiusKernel::kR6 ? "r6" : "r4") +
                     (dipole ? " + dipole" : ""));
        ApproxParams params;
        params.radius_kernel = kernel;
        params.born_dipole_correction = dipole;
        const BornSolver solver(f.prep, params);
        BornAccumulator whole_list = solver.make_accumulator();
        solver.accumulate_lists(solver.build_lists(0, n), whole_list);
        for (const std::vector<std::uint32_t>& bounds : leaf_cuts(n)) {
          BornAccumulator relay = solver.make_accumulator();
          for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
            BornAccumulator walk = solver.make_accumulator();
            BornAccumulator list = solver.make_accumulator();
            solver.accumulate_walk(bounds[c], bounds[c + 1], walk);
            const InteractionLists lists = solver.build_lists(bounds[c], bounds[c + 1]);
            solver.accumulate_far_range(lists, 0, lists.far.size(), list);
            solver.accumulate_near_range(lists, 0, lists.near.size(), list);
            expect_same_bits(walk.flat().first(n_nodes), list.flat().first(n_nodes),
                             "node_s");
            expect_same_bits(walk.flat().subspan(n_nodes), list.flat().subspan(n_nodes),
                             "atom_s");
            solver.accumulate_walk(bounds[c], bounds[c + 1], relay);
          }
          expect_same_bits(relay.flat(), whole_list.flat(), "relayed accumulator");
        }
      }
    }
  }
}

// The E_pol walk continues the far and near raw sums exactly as the range
// evaluators over the mirrored self-walk's lists do, with exact and
// approximate math: per chunk of every cut, and relayed across a cut's
// chunks (raws carried from one sub-range to the next, list and walk
// evaluation mixed along the chain).
TEST_F(InteractionListsTest, EpolWalkEvaluationMatchesListsBitwise) {
  const auto check = [](const Prepared& prep, const std::vector<double>& born) {
    const auto n = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
    for (const bool approx_math : {false, true}) {
      SCOPED_TRACE(approx_math ? "approx math" : "exact math");
      ApproxParams params;
      params.approx_math = approx_math;
      const EpolSolver solver(prep, born, params, GBConstants{});
      const auto list_raws = [&](std::uint32_t lo, std::uint32_t hi, double& far,
                                 double& near) {
        const InteractionLists lists = solver.build_lists(lo, hi);
        solver.accumulate_energy_far_range(lists, 0, lists.far.size(), far);
        solver.accumulate_energy_near_range(lists, 0, lists.near.size(), near);
      };
      double whole_far = 0.0, whole_near = 0.0;
      list_raws(0, n, whole_far, whole_near);
      ASSERT_NE(whole_near, 0.0);
      for (const std::vector<std::uint32_t>& bounds : leaf_cuts(n)) {
        SCOPED_TRACE(std::to_string(bounds.size() - 1) + " chunks");
        double relay_far = 0.0, relay_near = 0.0;
        double mixed_far = 0.0, mixed_near = 0.0;
        for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
          double walk_far = 0.0, walk_near = 0.0, list_far = 0.0, list_near = 0.0;
          solver.accumulate_energy_walk(bounds[c], bounds[c + 1], walk_far, walk_near);
          list_raws(bounds[c], bounds[c + 1], list_far, list_near);
          EXPECT_EQ(bits_of(walk_far), bits_of(list_far)) << "chunk " << c;
          EXPECT_EQ(bits_of(walk_near), bits_of(list_near)) << "chunk " << c;
          solver.accumulate_energy_walk(bounds[c], bounds[c + 1], relay_far, relay_near);
          if (c % 2 == 0)
            solver.accumulate_energy_walk(bounds[c], bounds[c + 1], mixed_far,
                                          mixed_near);
          else
            list_raws(bounds[c], bounds[c + 1], mixed_far, mixed_near);
        }
        EXPECT_EQ(bits_of(relay_far), bits_of(whole_far));
        EXPECT_EQ(bits_of(relay_near), bits_of(whole_near));
        EXPECT_EQ(bits_of(mixed_far), bits_of(whole_far));
        EXPECT_EQ(bits_of(mixed_near), bits_of(whole_near));
      }
    }
  };
  for (const Fixture& f : fixtures()) {
    SCOPED_TRACE("fixture " + std::to_string(f.mol.size()) + " atoms");
    check(f.prep, naive_born_sorted(f));
  }
}

// A build stores its lists at their exact size: the arena bytes it leaves
// mapped are the entries' bytes plus page rounding, not the abandoned
// buffers of a doubling vector. Built over a dense random point cloud
// against itself with small leaves, which yields over a million entries.
TEST_F(InteractionListsTest, ListBuildMapsExactSizeStorage) {
  std::vector<Vec3> pos(40000);
  std::uint64_t state = 12345;
  const auto next = [&] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  for (Vec3& p : pos) p = Vec3{next(), next(), next()} * 60.0;
  Octree::BuildParams bp;
  bp.leaf_capacity = 4;
  const Octree tree = Octree::build(pos, bp);
  const ListBuildParams lp{.far_multiplier = 1.5,
                           .exact_at_target_leaf = false,
                           .source_leaf_lo = 0,
                           .source_leaf_hi =
                               static_cast<std::uint32_t>(tree.leaves().size())};
  const std::size_t mapped_before = arena_mapped_bytes();
  const InteractionLists lists = build_interaction_lists(tree, tree, lp);
  const std::size_t mapped = arena_mapped_bytes() - mapped_before;
  const std::size_t entry_bytes = lists.far.size() * sizeof(InteractionLists::Far) +
                                  lists.near.size() * sizeof(InteractionLists::Near);
  ASSERT_GE(lists.far.size() + lists.near.size(), std::size_t{1} << 20);
  EXPECT_GE(mapped, entry_bytes);
  EXPECT_LE(static_cast<double>(mapped),
            1.25 * static_cast<double>(entry_bytes) + PageArena::kDefaultSlabBytes);
  EXPECT_EQ(lists.far.capacity(), lists.far.size());
  EXPECT_EQ(lists.near.capacity(), lists.near.size());
}

// End-to-end: the drivers under kList vs kRecursive agree on energy and every
// Born radius, serial and distributed.
TEST_F(InteractionListsTest, DriversAgreeAcrossTraversalModes) {
  const Fixture& f = fixtures()[1];
  const GBConstants constants;

  const Engine engine(f.prep, ApproxParams{}, constants);
  const RunResult serial_list = engine.run(serial_options(TraversalMode::kList));
  const RunResult serial_rec = engine.run(serial_options(TraversalMode::kRecursive));
  EXPECT_LE(rel_diff(serial_list.energy, serial_rec.energy), 1e-12);
  ASSERT_EQ(serial_list.born_sorted.size(), serial_rec.born_sorted.size());
  for (std::size_t i = 0; i < serial_list.born_sorted.size(); ++i)
    EXPECT_LE(rel_diff(serial_list.born_sorted[i], serial_rec.born_sorted[i]), 1e-12);

  RunOptions config;
  config.mode = EngineMode::kDistributed;
  config.ranks = 3;
  config.threads_per_rank = 2;
  const RunResult dist_list = engine.run(config);
  // The chunk fold reassociates per-chunk partial sums, so compare against
  // the serial result at the drivers' established cross-mode tolerance.
  EXPECT_LE(rel_diff(dist_list.energy, serial_list.energy), 1e-9);
  for (std::size_t i = 0; i < dist_list.born_sorted.size(); ++i)
    EXPECT_LE(rel_diff(dist_list.born_sorted[i], serial_list.born_sorted[i]), 1e-9);
}

}  // namespace
}  // namespace gbpol
