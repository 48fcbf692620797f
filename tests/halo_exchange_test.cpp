// Halo-plan correctness (core/halo_exchange.hpp): the ownership map tiles
// the trees exactly; the halo plan imports EVERYTHING a rank's executor
// chunks will read (no under-import) and NOTHING else (no over-import);
// plans are deterministic pure functions of their inputs; degenerate shapes
// (single rank, more ranks than leaves, empty halos) stay well-formed. The
// accumulator fold slice must agree element-for-element with the full fold.
#include "core/halo_exchange.hpp"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/balance.hpp"
#include "core/born_octree.hpp"
#include "core/engine.hpp"
#include "core/interaction_lists.hpp"
#include "molecule/generate.hpp"
#include "molecule/suite.hpp"
#include "mpisim/costmodel.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {
namespace {

Prepared build_prep(std::uint32_t n_atoms, std::uint64_t seed) {
  const Molecule mol = molgen::synthetic_protein(n_atoms, seed);
  const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(
      mol, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3});
  return Prepared::build(mol, quad, 16);
}

struct Plans {
  ChunkPlan born_plan;
  ChunkPlan epol_plan;
  BalanceAssignment plan_born;
  BalanceAssignment plan_epol;
  OwnershipMap ownership;
  HaloPlan halo;
};

Plans make_plans(const Prepared& prep, int ranks, BalancePolicy policy,
                 std::uint32_t chunk_leaves = 0) {
  const ApproxParams params;
  const std::uint32_t n_qleaves =
      static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  const std::uint32_t n_aleaves =
      static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  Plans p;
  p.born_plan = make_chunk_plan(n_qleaves, ranks, chunk_leaves);
  p.epol_plan = make_chunk_plan(n_aleaves, ranks, chunk_leaves);
  // Cost model mirrors the driver's: per-leaf near point-pairs + far points.
  std::vector<double> born_costs(p.born_plan.n_chunks, 0.0);
  std::vector<double> epol_costs(p.epol_plan.n_chunks, 0.0);
  if (policy != BalancePolicy::kStatic) {
    const BornSolver born_solver(prep, params);
    const auto lists = born_solver.build_lists(0, n_qleaves);
    for (std::uint32_t c = 0; c < p.born_plan.n_chunks; ++c)
      born_costs[c] = 1.0 + c % 7;  // any deterministic skew works here
    for (std::uint32_t c = 0; c < p.epol_plan.n_chunks; ++c)
      epol_costs[c] = 1.0 + (c * 3) % 11;
    (void)lists;
  }
  p.plan_born = plan_balance(born_costs, ranks, policy);
  p.plan_epol = plan_balance(epol_costs, ranks, policy);
  p.ownership = make_ownership_map(prep, ranks, p.born_plan, p.epol_plan);
  p.halo = build_halo_plan(prep, walk_planning(prep, params), p.ownership,
                           p.plan_born, p.born_plan, p.plan_epol, p.epol_plan);
  return p;
}

// Ordinal of a leaf NODE id in tree.leaves().
std::vector<std::uint32_t> leaf_ordinals(const Octree& tree) {
  std::vector<std::uint32_t> ord(tree.nodes().size(), 0);
  const auto leaves = tree.leaves();
  for (std::uint32_t i = 0; i < leaves.size(); ++i) ord[leaves[i]] = i;
  return ord;
}

bool in_segment(const Segment& s, std::uint32_t x) {
  return x >= s.lo && x < s.hi;
}

bool in_sorted(const std::vector<std::uint32_t>& v, std::uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

// --- ownership map --------------------------------------------------------

TEST(OwnershipMapTest, SegmentsTileBothTreesExactly) {
  const Prepared prep = build_prep(500, 3);
  for (const int ranks : {1, 3, 5, 8}) {
    const Plans p = make_plans(prep, ranks, BalancePolicy::kStatic);
    ASSERT_EQ(p.ownership.num_ranks(), ranks);
    std::uint32_t aleaf_cursor = 0, qleaf_cursor = 0;
    std::uint32_t atom_cursor = 0, q_cursor = 0;
    for (const OwnershipMap::RankSpan& span : p.ownership.ranks) {
      EXPECT_EQ(span.atom_leaves.lo, aleaf_cursor);
      EXPECT_EQ(span.q_leaves.lo, qleaf_cursor);
      EXPECT_EQ(span.atoms.lo, atom_cursor);
      EXPECT_EQ(span.qpoints.lo, q_cursor);
      aleaf_cursor = span.atom_leaves.hi;
      qleaf_cursor = span.q_leaves.hi;
      atom_cursor = span.atoms.hi;
      q_cursor = span.qpoints.hi;
    }
    EXPECT_EQ(aleaf_cursor, prep.atoms_tree.leaves().size());
    EXPECT_EQ(qleaf_cursor, prep.q_tree.leaves().size());
    EXPECT_EQ(atom_cursor, prep.num_atoms());
    EXPECT_EQ(q_cursor, prep.q_tree.num_points());
    // Point spans are exactly the union of the owned leaves' point ranges.
    for (const OwnershipMap::RankSpan& span : p.ownership.ranks) {
      std::uint32_t pts = 0;
      for (std::uint32_t l = span.atom_leaves.lo; l < span.atom_leaves.hi; ++l)
        pts += prep.atoms_tree.node(prep.atoms_tree.leaves()[l]).count();
      EXPECT_EQ(pts, span.atoms.count());
    }
  }
}

TEST(OwnershipMapTest, LeafOwnerLookupAgreesWithSegments) {
  const Prepared prep = build_prep(500, 3);
  const Plans p = make_plans(prep, 5, BalancePolicy::kStatic);
  for (std::uint32_t l = 0; l < prep.atoms_tree.leaves().size(); ++l) {
    const int owner = p.ownership.atom_leaf_owner(l);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 5);
    EXPECT_TRUE(in_segment(
        p.ownership.ranks[static_cast<std::size_t>(owner)].atom_leaves, l));
  }
}

TEST(OwnershipMapTest, OwnershipIsIndependentOfBalancePolicy) {
  // Ownership derives from the kStatic even split of the chunk plans, so
  // steals move WORK but never DATA ownership.
  const Prepared prep = build_prep(500, 3);
  const Plans a = make_plans(prep, 5, BalancePolicy::kStatic);
  const Plans b = make_plans(prep, 5, BalancePolicy::kSteal);
  ASSERT_EQ(a.ownership.hash(), b.ownership.hash());
  for (int r = 0; r < 5; ++r) {
    EXPECT_EQ(a.ownership.ranks[r].atoms.lo, b.ownership.ranks[r].atoms.lo);
    EXPECT_EQ(a.ownership.ranks[r].atoms.hi, b.ownership.ranks[r].atoms.hi);
  }
}

// --- halo plan: no under-import ------------------------------------------

// Every leaf a rank's executor chunks touch must be owned or imported:
//  * Epol near entries need Born radii + points of both sides.
//  * Epol chunk source leaves need point payload.
//  * Born chunk q-leaves need quadrature payload; Born near targets need
//    atom point payload.
void expect_no_under_import(const Prepared& prep, const Plans& p, int ranks) {
  const ApproxParams params;
  const BornSolver born_solver(prep, params);
  const std::vector<std::uint32_t> aord = leaf_ordinals(prep.atoms_tree);
  const std::vector<std::uint32_t> qord = leaf_ordinals(prep.q_tree);
  const std::uint32_t n_aleaves =
      static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  for (int r = 0; r < ranks; ++r) {
    const OwnershipMap::RankSpan& own = p.ownership.ranks[static_cast<std::size_t>(r)];
    const HaloPlan::RankHalo& h = p.halo.ranks[static_cast<std::size_t>(r)];
    const auto owned_aleaf = [&](std::uint32_t ord) {
      return in_segment(own.atom_leaves, ord);
    };
    // Epol executor chunks.
    for (const std::uint32_t c : p.plan_epol.order[static_cast<std::size_t>(r)]) {
      const Segment seg = p.epol_plan.chunk_range(c);
      for (std::uint32_t l = seg.lo; l < seg.hi; ++l)
        EXPECT_TRUE(owned_aleaf(l) || in_sorted(h.atom_halo_leaves, l))
            << "rank " << r << " epol chunk leaf " << l << " not available";
      const InteractionLists lists = build_interaction_lists(
          prep.atoms_tree, prep.atoms_tree,
          {.far_multiplier = params.epol_far_multiplier(),
           .exact_at_target_leaf = true,
           .source_leaf_lo = seg.lo,
           .source_leaf_hi = seg.hi});
      for (const InteractionLists::Near& nr : lists.near) {
        for (const std::uint32_t node : {nr.target_leaf, std::uint32_t{nr.source_leaf}}) {
          const std::uint32_t ord = aord[node];
          EXPECT_TRUE(owned_aleaf(ord) || in_sorted(h.born_halo_leaves, ord))
              << "rank " << r << " near leaf " << ord << " lacks Born halo";
          EXPECT_TRUE(owned_aleaf(ord) || in_sorted(h.atom_halo_leaves, ord))
              << "rank " << r << " near leaf " << ord << " lacks point halo";
        }
      }
    }
    // Born executor chunks.
    for (const std::uint32_t c : p.plan_born.order[static_cast<std::size_t>(r)]) {
      const Segment seg = p.born_plan.chunk_range(c);
      for (std::uint32_t l = seg.lo; l < seg.hi; ++l)
        EXPECT_TRUE(in_segment(own.q_leaves, l) || in_sorted(h.q_halo_leaves, l))
            << "rank " << r << " born chunk q-leaf " << l << " not available";
      const InteractionLists lists = born_solver.build_lists(seg.lo, seg.hi);
      for (const InteractionLists::Near& nr : lists.near) {
        const std::uint32_t ord = aord[nr.target_leaf];
        EXPECT_TRUE(owned_aleaf(ord) || in_sorted(h.atom_halo_leaves, ord))
            << "rank " << r << " born near target " << ord << " lacks points";
      }
    }
    // Counts match the leaf sets.
    std::uint32_t born_atoms = 0;
    for (const std::uint32_t l : h.born_halo_leaves)
      born_atoms += prep.atoms_tree.node(prep.atoms_tree.leaves()[l]).count();
    EXPECT_EQ(born_atoms, h.born_halo_atoms);
    ASSERT_LE(n_aleaves, 100000u);  // sanity for the ordinal tables above
  }
}

TEST(HaloPlanTest, NoUnderImportAcrossPoliciesAndRankCounts) {
  const Prepared prep = build_prep(500, 3);
  for (const int ranks : {1, 3, 5, 8}) {
    for (const BalancePolicy policy :
         {BalancePolicy::kStatic, BalancePolicy::kSteal}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " policy=" +
                   std::to_string(static_cast<int>(policy)));
      const Plans p = make_plans(prep, ranks, policy);
      expect_no_under_import(prep, p, ranks);
    }
  }
}

// --- halo plan: no over-import -------------------------------------------

TEST(HaloPlanTest, EveryBornHaloLeafIsActuallyReferenced) {
  const Prepared prep = build_prep(500, 3);
  const ApproxParams params;
  for (const int ranks : {3, 5, 8}) {
    const Plans p = make_plans(prep, ranks, BalancePolicy::kStatic);
    const std::vector<std::uint32_t> aord = leaf_ordinals(prep.atoms_tree);
    for (int r = 0; r < ranks; ++r) {
      const OwnershipMap::RankSpan& own =
          p.ownership.ranks[static_cast<std::size_t>(r)];
      const HaloPlan::RankHalo& h = p.halo.ranks[static_cast<std::size_t>(r)];
      // Collect every near-list leaf the rank's epol chunks reference.
      std::set<std::uint32_t> referenced;
      for (const std::uint32_t c : p.plan_epol.order[static_cast<std::size_t>(r)]) {
        const Segment seg = p.epol_plan.chunk_range(c);
        const InteractionLists lists = build_interaction_lists(
            prep.atoms_tree, prep.atoms_tree,
            {.far_multiplier = params.epol_far_multiplier(),
             .exact_at_target_leaf = true,
             .source_leaf_lo = seg.lo,
             .source_leaf_hi = seg.hi});
        for (const InteractionLists::Near& nr : lists.near) {
          referenced.insert(aord[nr.target_leaf]);
          referenced.insert(aord[nr.source_leaf]);
        }
      }
      for (const std::uint32_t l : h.born_halo_leaves) {
        EXPECT_FALSE(in_segment(own.atom_leaves, l))
            << "rank " << r << " imports leaf " << l << " it already owns";
        EXPECT_TRUE(referenced.count(l) > 0)
            << "rank " << r << " imports Born leaf " << l
            << " no near entry reads";
      }
      // Halo vectors are sorted and unique.
      EXPECT_TRUE(std::is_sorted(h.born_halo_leaves.begin(),
                                 h.born_halo_leaves.end()));
      EXPECT_TRUE(std::adjacent_find(h.born_halo_leaves.begin(),
                                     h.born_halo_leaves.end()) ==
                  h.born_halo_leaves.end());
      EXPECT_TRUE(std::is_sorted(h.atom_halo_leaves.begin(),
                                 h.atom_halo_leaves.end()));
      EXPECT_TRUE(std::is_sorted(h.q_halo_leaves.begin(), h.q_halo_leaves.end()));
    }
  }
}

// --- determinism and degenerate shapes -----------------------------------

TEST(HaloPlanTest, PlansAreDeterministic) {
  const Prepared prep = build_prep(400, 9);
  for (const BalancePolicy policy :
       {BalancePolicy::kStatic, BalancePolicy::kSteal}) {
    const Plans a = make_plans(prep, 5, policy);
    const Plans b = make_plans(prep, 5, policy);
    ASSERT_EQ(a.ownership.hash(), b.ownership.hash());
    ASSERT_EQ(a.halo.hash(), b.halo.hash());
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(a.halo.ranks[r].born_halo_leaves, b.halo.ranks[r].born_halo_leaves);
      EXPECT_EQ(a.halo.ranks[r].atom_halo_leaves, b.halo.ranks[r].atom_halo_leaves);
      EXPECT_EQ(a.halo.ranks[r].q_halo_leaves, b.halo.ranks[r].q_halo_leaves);
    }
  }
  // Different rank counts must hash differently (the hash covers the spans).
  EXPECT_NE(make_plans(prep, 3, BalancePolicy::kStatic).ownership.hash(),
            make_plans(prep, 5, BalancePolicy::kStatic).ownership.hash());
}

TEST(HaloPlanTest, SingleRankHasEmptyHalo) {
  const Prepared prep = build_prep(400, 9);
  const Plans p = make_plans(prep, 1, BalancePolicy::kStatic);
  ASSERT_EQ(p.halo.ranks.size(), 1u);
  EXPECT_TRUE(p.halo.ranks[0].born_halo_leaves.empty());
  EXPECT_TRUE(p.halo.ranks[0].atom_halo_leaves.empty());
  EXPECT_TRUE(p.halo.ranks[0].q_halo_leaves.empty());
  EXPECT_EQ(p.halo.ranks[0].born_halo_atoms, 0u);
  EXPECT_EQ(p.ownership.ranks[0].atoms.count(), prep.num_atoms());
}

TEST(HaloPlanTest, MoreRanksThanLeavesLeavesSurplusRanksEmpty) {
  const Prepared prep = build_prep(40, 7);  // leaf cap 16: very few leaves
  const int ranks = 12;
  const Plans p = make_plans(prep, ranks, BalancePolicy::kStatic);
  ASSERT_EQ(p.ownership.num_ranks(), ranks);
  std::uint32_t owned_total = 0;
  for (int r = 0; r < ranks; ++r) {
    const OwnershipMap::RankSpan& span = p.ownership.ranks[static_cast<std::size_t>(r)];
    owned_total += span.atoms.count();
    const HaloPlan::RankHalo& h = p.halo.ranks[static_cast<std::size_t>(r)];
    // A rank that owns nothing and executes nothing must import nothing.
    if (p.plan_epol.order[static_cast<std::size_t>(r)].empty() &&
        p.plan_born.order[static_cast<std::size_t>(r)].empty()) {
      EXPECT_TRUE(h.born_halo_leaves.empty());
      EXPECT_TRUE(h.atom_halo_leaves.empty());
      EXPECT_TRUE(h.q_halo_leaves.empty());
    }
  }
  EXPECT_EQ(owned_total, prep.num_atoms());
  expect_no_under_import(prep, p, ranks);
}

// --- walked planning vs. the list-replay oracle ---------------------------

// The planning the walks replaced, kept as the oracle. Chunk costs came from
// a full list build per phase: a source leaf costs its near point pairs plus
// its source points once per far entry.
std::vector<double> replay_chunk_costs(const Octree& target, const Octree& source,
                                       const ChunkPlan& plan,
                                       const InteractionLists& lists) {
  const std::vector<std::uint32_t> leaf_of = leaf_ordinals(source);
  std::vector<std::uint64_t> per_leaf(source.leaves().size(), 0);
  for (const InteractionLists::Near& nr : lists.near)
    per_leaf[leaf_of[nr.source_leaf]] +=
        static_cast<std::uint64_t>(target.node(nr.target_leaf).count()) *
        source.node(nr.source_leaf).count();
  for (const InteractionLists::Far& fr : lists.far)
    per_leaf[leaf_of[fr.source_leaf]] += source.node(fr.source_leaf).count();
  const std::vector<double> leaf_costs = mpisim::interaction_costs(per_leaf);
  std::vector<double> costs(plan.n_chunks, 0.0);
  for (std::uint32_t c = 0; c < plan.n_chunks; ++c) {
    const Segment seg = plan.chunk_range(c);
    for (std::uint32_t l = seg.lo; l < seg.hi; ++l) costs[c] += leaf_costs[l];
  }
  return costs;
}

// Halos came from replaying each executor chunk's list build and marking
// every leaf its entries read.
HaloPlan replay_halo_plan(const Prepared& prep, const ApproxParams& params,
                          const OwnershipMap& ownership,
                          const BalanceAssignment& plan_born,
                          const ChunkPlan& born_plan,
                          const BalanceAssignment& plan_epol,
                          const ChunkPlan& epol_plan) {
  const BornSolver born_solver(prep, params);
  const std::vector<std::uint32_t> aleaf_of = leaf_ordinals(prep.atoms_tree);
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  HaloPlan plan;
  plan.ranks.resize(ownership.ranks.size());
  for (std::size_t r = 0; r < ownership.ranks.size(); ++r) {
    std::vector<char> born_mark(n_aleaves, 0);
    std::vector<char> apoint_mark(n_aleaves, 0);
    std::vector<char> qpoint_mark(n_qleaves, 0);
    for (const std::uint32_t c : plan_born.order[r]) {
      const Segment seg = born_plan.chunk_range(c);
      for (std::uint32_t l = seg.lo; l < seg.hi; ++l) qpoint_mark[l] = 1;
      const InteractionLists lists = born_solver.build_lists(seg.lo, seg.hi);
      for (const InteractionLists::Near& nr : lists.near)
        apoint_mark[aleaf_of[nr.target_leaf]] = 1;
    }
    for (const std::uint32_t c : plan_epol.order[r]) {
      const Segment seg = epol_plan.chunk_range(c);
      for (std::uint32_t l = seg.lo; l < seg.hi; ++l) apoint_mark[l] = 1;
      const InteractionLists lists = build_interaction_lists(
          prep.atoms_tree, prep.atoms_tree,
          {.far_multiplier = params.epol_far_multiplier(),
           .exact_at_target_leaf = true,
           .source_leaf_lo = seg.lo,
           .source_leaf_hi = seg.hi});
      for (const InteractionLists::Near& nr : lists.near) {
        for (const std::uint32_t node : {nr.target_leaf, std::uint32_t{nr.source_leaf}}) {
          born_mark[aleaf_of[node]] = 1;
          apoint_mark[aleaf_of[node]] = 1;
        }
      }
    }
    HaloPlan::RankHalo& out = plan.ranks[r];
    const OwnershipMap::RankSpan& own = ownership.ranks[r];
    for (std::uint32_t l = 0; l < n_aleaves; ++l) {
      if (in_segment(own.atom_leaves, l)) continue;
      if (born_mark[l]) out.born_halo_leaves.push_back(l);
      if (apoint_mark[l]) out.atom_halo_leaves.push_back(l);
    }
    for (std::uint32_t l = 0; l < n_qleaves; ++l)
      if (!in_segment(own.q_leaves, l) && qpoint_mark[l]) out.q_halo_leaves.push_back(l);
    const auto points = [](const Octree& tree, const std::vector<std::uint32_t>& ords) {
      std::uint32_t n = 0;
      for (const std::uint32_t l : ords) n += tree.node(tree.leaves()[l]).count();
      return n;
    };
    out.born_halo_atoms = points(prep.atoms_tree, out.born_halo_leaves);
    out.atom_halo_points = points(prep.atoms_tree, out.atom_halo_leaves);
    out.q_halo_points = points(prep.q_tree, out.q_halo_leaves);
  }
  return plan;
}

// Runs the drivers' planning (walk -> costs -> balance -> halo) and the
// oracle's (lists -> costs -> balance -> replayed halo) side by side: the
// costs must be equal as doubles and the plans equal leaf for leaf.
// Returns the total Born-halo leaf count so callers can reject vacuous runs.
std::size_t expect_walked_plan_matches_replay(const Prepared& prep, int ranks,
                                              BalancePolicy policy) {
  const ApproxParams params;
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const ChunkPlan born_plan = make_chunk_plan(n_qleaves, ranks, 0);
  const ChunkPlan epol_plan = make_chunk_plan(n_aleaves, ranks, 0);

  const BornSolver born_solver(prep, params);
  const std::vector<double> born_oracle = replay_chunk_costs(
      prep.atoms_tree, prep.q_tree, born_plan, born_solver.build_lists(0, n_qleaves));
  const std::vector<double> epol_oracle = replay_chunk_costs(
      prep.atoms_tree, prep.atoms_tree, epol_plan,
      build_interaction_lists(prep.atoms_tree, prep.atoms_tree,
                              {.far_multiplier = params.epol_far_multiplier(),
                               .exact_at_target_leaf = true,
                               .source_leaf_lo = 0,
                               .source_leaf_hi = n_aleaves}));
  const PlanningWalks walks = walk_planning(prep, params);
  const std::vector<double> born_costs = chunk_costs(born_plan, walks.born.interactions);
  const std::vector<double> epol_costs = chunk_costs(epol_plan, walks.epol.interactions);
  EXPECT_EQ(born_costs, born_oracle);
  EXPECT_EQ(epol_costs, epol_oracle);

  const OwnershipMap ownership = make_ownership_map(prep, ranks, born_plan, epol_plan);
  const BalanceAssignment walk_born = plan_balance(born_costs, ranks, policy);
  const BalanceAssignment walk_epol = plan_balance(epol_costs, ranks, policy);
  const BalanceAssignment oracle_born = plan_balance(born_oracle, ranks, policy);
  const BalanceAssignment oracle_epol = plan_balance(epol_oracle, ranks, policy);
  EXPECT_EQ(walk_born.order, oracle_born.order);
  EXPECT_EQ(walk_epol.order, oracle_epol.order);

  const HaloPlan walked = build_halo_plan(prep, walks, ownership, walk_born,
                                          born_plan, walk_epol, epol_plan);
  const HaloPlan oracle = replay_halo_plan(prep, params, ownership, oracle_born,
                                           born_plan, oracle_epol, epol_plan);
  EXPECT_EQ(walked.hash(), oracle.hash());
  EXPECT_EQ(walked.ranks.size(), oracle.ranks.size());
  std::size_t born_halo_leaves = 0;
  for (std::size_t r = 0; r < std::min(walked.ranks.size(), oracle.ranks.size()); ++r) {
    const HaloPlan::RankHalo& w = walked.ranks[r];
    const HaloPlan::RankHalo& o = oracle.ranks[r];
    EXPECT_EQ(w.born_halo_leaves, o.born_halo_leaves) << "rank " << r;
    EXPECT_EQ(w.atom_halo_leaves, o.atom_halo_leaves) << "rank " << r;
    EXPECT_EQ(w.q_halo_leaves, o.q_halo_leaves) << "rank " << r;
    EXPECT_EQ(w.born_halo_atoms, o.born_halo_atoms) << "rank " << r;
    EXPECT_EQ(w.atom_halo_points, o.atom_halo_points) << "rank " << r;
    EXPECT_EQ(w.q_halo_points, o.q_halo_points) << "rank " << r;
    born_halo_leaves += w.born_halo_leaves.size();
  }
  return born_halo_leaves;
}

TEST(HaloPlanTest, WalkedPlanAndCostsEqualListReplayOracle) {
  const Prepared protein = build_prep(500, 3);
  const Molecule shell = molgen::cmv_like(0.02);
  const Prepared cmv = Prepared::build(
      shell,
      surface::molecular_surface_quadrature(
          shell, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3}),
      16);
  for (const Prepared* prep : {&protein, &cmv}) {
    for (const int ranks : {1, 2, 3, 4, 8}) {
      for (const BalancePolicy policy :
           {BalancePolicy::kStatic, BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
        SCOPED_TRACE("atoms=" + std::to_string(prep->num_atoms()) +
                     " ranks=" + std::to_string(ranks) +
                     " policy=" + std::to_string(static_cast<int>(policy)));
        const std::size_t imported = expect_walked_plan_matches_replay(*prep, ranks, policy);
        if (ranks > 1) {
          EXPECT_GT(imported, 0u);
        }
      }
    }
  }
}

// --- accumulator fold slice ----------------------------------------------

TEST(AccFoldSliceTest, SliceMatchesFullFoldElementForElement) {
  const Prepared prep = build_prep(300, 5);
  const ApproxParams params;
  const BornSolver solver(prep, params);
  const std::uint32_t n_qleaves =
      static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  // Per-chunk partials exactly as the driver computes them.
  const ChunkPlan plan = make_chunk_plan(n_qleaves, 4, 2);
  std::vector<std::vector<double>> partials(plan.n_chunks);
  for (std::uint32_t c = 0; c < plan.n_chunks; ++c) {
    const Segment seg = plan.chunk_range(c);
    BornAccumulator scratch = solver.make_accumulator();
    const InteractionLists lists = solver.build_lists(seg.lo, seg.hi);
    solver.accumulate_lists(lists, scratch);
    partials[c].assign(scratch.flat().begin(), scratch.flat().end());
  }
  // Full canonical fold.
  BornAccumulator full = solver.make_accumulator();
  for (std::uint32_t c = 0; c < plan.n_chunks; ++c)
    for (std::size_t j = 0; j < full.flat().size(); ++j)
      full.flat()[j] += partials[c][j];

  const std::uint32_t n_atoms = static_cast<std::uint32_t>(prep.num_atoms());
  for (const int ranks : {1, 3, 5}) {
    for (int r = 0; r < ranks; ++r) {
      const Segment owned = even_segment(n_atoms, ranks, r);
      const std::vector<std::uint32_t> slice =
          acc_fold_slice(prep.atoms_tree, owned);
      // Ascending and unique.
      ASSERT_TRUE(std::is_sorted(slice.begin(), slice.end()));
      ASSERT_TRUE(std::adjacent_find(slice.begin(), slice.end()) == slice.end());
      // Sliced fold reproduces the full fold on every slice element.
      BornAccumulator sliced = solver.make_accumulator();
      for (std::uint32_t c = 0; c < plan.n_chunks; ++c)
        for (const std::uint32_t idx : slice)
          sliced.flat()[idx] += partials[c][idx];
      for (const std::uint32_t idx : slice)
        ASSERT_EQ(sliced.flat()[idx], full.flat()[idx]) << "acc slot " << idx;
      // The slice serves the owned atoms: pushing through it must equal the
      // full-accumulator push on [lo, hi).
      std::vector<double> from_full(n_atoms, -1.0);
      std::vector<double> from_slice(n_atoms, -1.0);
      solver.push_to_atoms(full, owned.lo, owned.hi, from_full);
      solver.push_to_atoms(sliced, owned.lo, owned.hi, from_slice);
      for (std::uint32_t a = owned.lo; a < owned.hi; ++a)
        ASSERT_EQ(from_slice[a], from_full[a]) << "atom " << a;
    }
  }
}

}  // namespace
}  // namespace gbpol
