#include "core/born_octree.hpp"

#include <cassert>

#include "core/approx_math.hpp"
#include "core/kernels_simd.hpp"
#include "core/naive.hpp"

namespace gbpol {
namespace {

// Streamed bytes per point for the near tiles: the atom side touches x/y/z
// plus the atom_s accumulator (read+write), the q side six payload arrays.
constexpr InteractionLists::TileCost kBornTileCost = {
    /*near_target_bytes_per_point=*/5 * sizeof(double),
    /*near_source_bytes_per_point=*/6 * sizeof(double),
    // Far entries stream a node aggregate (w*n Vec3 + moment Mat3) and two
    // tree nodes.
    /*far_bytes_per_entry=*/sizeof(Vec3) + sizeof(Mat3) + 2 * sizeof(OctreeNode)};

// Scalar kernels live in core/approx_math.hpp (born_kernel_term /
// born_dipole_term), shared between the recursive engine, the list engine's
// far loop, and the micro benches.
template <int Power>
double kernel_term(const Vec3& wn, const Vec3& diff, double d2) {
  return born_kernel_term<Power>(wn, diff, d2);
}

template <int Power>
double dipole_term(const Mat3& moment, const Vec3& diff, double d2) {
  return born_dipole_term<Power>(moment, diff, d2);
}

// Evaluates one far or near entry into an accumulator: the per-entry code
// of every kList path — list segments, entry subsets and the walk, whose
// evaluating visitor it is — so they cannot drift apart. Far entries write
// node_s, near entries atom_s. The near kernel is the runtime-dispatched
// SIMD tier (looked up once per evaluator, one indirect call per leaf pair),
// else the always-available SoA template.
template <int Power, bool Dipole>
class BornEntry {
 public:
  BornEntry(const Prepared& prep, BornAccumulator& acc) : prep_(prep), acc_(acc) {
    if (const SimdKernelTable* simd = simd_kernel_table())
      fn_ = Power == 6 ? simd->born_near_r6 : simd->born_near_r4;
  }

  void far(std::uint32_t target_node, std::uint32_t source_leaf) {
    const OctreeNode& a = prep_.atoms_tree.node(target_node);
    const OctreeNode& q = prep_.q_tree.node(source_leaf);
    const Vec3 diff = q.centroid - a.centroid;
    const double d2 = norm2(diff);
    double term = kernel_term<Power>(prep_.node_weighted_normal[source_leaf], diff, d2);
    if constexpr (Dipole) {
      term += dipole_term<Power>(prep_.node_moment[source_leaf], diff, d2);
    }
    acc_.node_s(target_node) += term;
  }

  void near(std::uint32_t target_leaf, std::uint32_t source_leaf, bool = false) {
    const PointsSoA& q = prep_.q_soa;
    const PointsSoA& wn = prep_.q_wn_soa;
    const PointsSoA& a = prep_.atoms_soa;
    const OctreeNode& an = prep_.atoms_tree.node(target_leaf);
    const OctreeNode& qn = prep_.q_tree.node(source_leaf);
    if (fn_ != nullptr) {
      fn_(q.x.data(), q.y.data(), q.z.data(), wn.x.data(), wn.y.data(), wn.z.data(),
          qn.begin, qn.end, a.x.data(), a.y.data(), a.z.data(), an.begin, an.end,
          acc_.atom_s_data());
    } else {
      born_near_soa<Power>(q.x.data(), q.y.data(), q.z.data(), wn.x.data(), wn.y.data(),
                           wn.z.data(), qn.begin, qn.end, a.x.data(), a.y.data(),
                           a.z.data(), an.begin, an.end, acc_.atom_s_data());
    }
  }

 private:
  const Prepared& prep_;
  BornAccumulator& acc_;
  SimdKernelTable::BornNearFn fn_ = nullptr;
};

}  // namespace

void BornAccumulator::add(const BornAccumulator& other) {
  assert(data_.size() == other.data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

bool BornSolver::is_far(const OctreeNode& a, const OctreeNode& q) const {
  const double d2 = distance2(a.centroid, q.centroid);
  const double reach = (a.radius + q.radius) * far_multiplier_;
  return d2 > reach * reach;
}

template <int Power, bool Dipole>
void BornSolver::approx_integrals(std::uint32_t atom_node_id, std::uint32_t q_leaf_id,
                                  BornAccumulator& acc) const {
  const Octree& atoms = prep_->atoms_tree;
  const OctreeNode& a = atoms.node(atom_node_id);
  const OctreeNode& q = prep_->q_tree.node(q_leaf_id);

  if (is_far(a, q)) {
    // Far enough: one aggregated term for ALL atoms under A (Fig. 2 line 1).
    const Vec3 diff = q.centroid - a.centroid;
    const double d2 = norm2(diff);
    double term = kernel_term<Power>(prep_->node_weighted_normal[q_leaf_id], diff, d2);
    if constexpr (Dipole) {
      term += dipole_term<Power>(prep_->node_moment[q_leaf_id], diff, d2);
    }
    acc.node_s(atom_node_id) += term;
    return;
  }
  if (a.is_leaf()) {
    // Too close to approximate: exact per-atom terms (Fig. 2 line 2).
    born_near_aos<Power>(atoms.points().data(), a.begin, a.end,
                         prep_->q_tree.points().data(), prep_->weighted_normal.data(),
                         q.begin, q.end, acc.atom_s_data());
    return;
  }
  for (std::uint8_t c = 0; c < a.child_count; ++c)
    approx_integrals<Power, Dipole>(static_cast<std::uint32_t>(a.first_child) + c,
                                    q_leaf_id, acc);
}

void BornSolver::accumulate_qleaf_range(std::uint32_t leaf_lo, std::uint32_t leaf_hi,
                                        BornAccumulator& acc) const {
  const auto leaves = prep_->q_tree.leaves();
  auto sweep = [&](auto run_leaf) {
    for (std::uint32_t i = leaf_lo; i < leaf_hi; ++i) run_leaf(leaves[i]);
  };
  if (kernel_ == RadiusKernel::kR6) {
    if (dipole_)
      sweep([&](std::uint32_t leaf) { approx_integrals<6, true>(0, leaf, acc); });
    else
      sweep([&](std::uint32_t leaf) { approx_integrals<6, false>(0, leaf, acc); });
  } else {
    if (dipole_)
      sweep([&](std::uint32_t leaf) { approx_integrals<4, true>(0, leaf, acc); });
    else
      sweep([&](std::uint32_t leaf) { approx_integrals<4, false>(0, leaf, acc); });
  }
}

ListBuildParams BornSolver::list_params(std::uint32_t q_leaf_lo,
                                        std::uint32_t q_leaf_hi) const {
  return {.far_multiplier = far_multiplier_,
          .exact_at_target_leaf = false,  // Fig. 2 tests far before the leaf case
          .source_leaf_lo = q_leaf_lo,
          .source_leaf_hi = q_leaf_hi};
}

InteractionLists BornSolver::build_lists(std::uint32_t q_leaf_lo,
                                         std::uint32_t q_leaf_hi) const {
  InteractionLists lists = build_interaction_lists(prep_->atoms_tree, prep_->q_tree,
                                                   list_params(q_leaf_lo, q_leaf_hi));
  lists.build_tiles(prep_->atoms_tree, prep_->q_tree, kBornTileCost);
  return lists;
}

template <int Power, bool Dipole>
void BornSolver::far_range_impl(const InteractionLists& lists, std::size_t lo,
                                std::size_t hi, BornAccumulator& acc) const {
  BornEntry<Power, Dipole> eval(*prep_, acc);
  // Tile boundaries only group the loop; entry order (and thus every += into
  // the accumulator) is unchanged, so results are identical per tile size.
  for_each_tile_range(lists.far_tile_start, lo, hi, [&](std::size_t tlo,
                                                        std::size_t thi) {
    for (std::size_t i = tlo; i < thi; ++i)
      eval.far(lists.far[i].target_node, lists.far[i].source_leaf);
  });
}

template <int Power>
void BornSolver::near_range_impl(const InteractionLists& lists, std::size_t lo,
                                 std::size_t hi, BornAccumulator& acc) const {
  BornEntry<Power, false> eval(*prep_, acc);
  for_each_tile_range(lists.near_tile_start, lo, hi, [&](std::size_t tlo,
                                                         std::size_t thi) {
    for (std::size_t i = tlo; i < thi; ++i)
      eval.near(lists.near[i].target_leaf, lists.near[i].source_leaf);
  });
}

template <int Power, bool Dipole>
void BornSolver::walk_impl(std::uint32_t q_leaf_lo, std::uint32_t q_leaf_hi,
                           BornAccumulator& acc) const {
  BornEntry<Power, Dipole> eval(*prep_, acc);
  walk_interactions(prep_->atoms_tree, prep_->q_tree, list_params(q_leaf_lo, q_leaf_hi),
                    eval);
}

void BornSolver::accumulate_walk(std::uint32_t q_leaf_lo, std::uint32_t q_leaf_hi,
                                 BornAccumulator& acc) const {
  if (kernel_ == RadiusKernel::kR6) {
    if (dipole_)
      walk_impl<6, true>(q_leaf_lo, q_leaf_hi, acc);
    else
      walk_impl<6, false>(q_leaf_lo, q_leaf_hi, acc);
  } else {
    if (dipole_)
      walk_impl<4, true>(q_leaf_lo, q_leaf_hi, acc);
    else
      walk_impl<4, false>(q_leaf_lo, q_leaf_hi, acc);
  }
}

void BornSolver::accumulate_far_range(const InteractionLists& lists, std::size_t lo,
                                      std::size_t hi, BornAccumulator& acc) const {
  if (kernel_ == RadiusKernel::kR6) {
    if (dipole_)
      far_range_impl<6, true>(lists, lo, hi, acc);
    else
      far_range_impl<6, false>(lists, lo, hi, acc);
  } else {
    if (dipole_)
      far_range_impl<4, true>(lists, lo, hi, acc);
    else
      far_range_impl<4, false>(lists, lo, hi, acc);
  }
}

void BornSolver::accumulate_near_range(const InteractionLists& lists, std::size_t lo,
                                       std::size_t hi, BornAccumulator& acc) const {
  if (kernel_ == RadiusKernel::kR6)
    near_range_impl<6>(lists, lo, hi, acc);
  else
    near_range_impl<4>(lists, lo, hi, acc);
}

template <int Power>
void BornSolver::near_entries_impl(const InteractionLists& lists,
                                   std::span<const std::uint32_t> entry_ids,
                                   BornAccumulator& acc) const {
  BornEntry<Power, false> eval(*prep_, acc);
  for (std::uint32_t idx : entry_ids)
    eval.near(lists.near[idx].target_leaf, lists.near[idx].source_leaf);
}

void BornSolver::accumulate_near_entries(const InteractionLists& lists,
                                         std::span<const std::uint32_t> entry_ids,
                                         BornAccumulator& acc) const {
  if (kernel_ == RadiusKernel::kR6)
    near_entries_impl<6>(lists, entry_ids, acc);
  else
    near_entries_impl<4>(lists, entry_ids, acc);
}

void BornSolver::accumulate_lists(const InteractionLists& lists,
                                  BornAccumulator& acc) const {
  accumulate_far_range(lists, 0, lists.far.size(), acc);
  accumulate_near_range(lists, 0, lists.near.size(), acc);
}

void BornSolver::push_recursive(const BornAccumulator& acc, std::uint32_t atom_node_id,
                                double inherited, std::uint32_t atom_lo,
                                std::uint32_t atom_hi,
                                std::span<double> born_sorted) const {
  const OctreeNode& node = prep_->atoms_tree.node(atom_node_id);
  // Prune subtrees outside the assigned atom segment.
  if (node.end <= atom_lo || node.begin >= atom_hi) return;
  const double carried = inherited + acc.node_s(atom_node_id);
  if (node.is_leaf()) {
    const std::uint32_t lo = std::max(node.begin, atom_lo);
    const std::uint32_t hi = std::min(node.end, atom_hi);
    for (std::uint32_t ai = lo; ai < hi; ++ai) {
      const double s = acc.atom_s(ai) + carried;
      born_sorted[ai] =
          kernel_ == RadiusKernel::kR6
              ? born_radius_from_integral(s, prep_->intrinsic_radius[ai])
              : born_radius_from_integral_r4(s, prep_->intrinsic_radius[ai]);
    }
    return;
  }
  for (std::uint8_t c = 0; c < node.child_count; ++c)
    push_recursive(acc, static_cast<std::uint32_t>(node.first_child) + c, carried,
                   atom_lo, atom_hi, born_sorted);
}

void BornSolver::push_to_atoms(const BornAccumulator& acc, std::uint32_t atom_lo,
                               std::uint32_t atom_hi,
                               std::span<double> born_sorted) const {
  if (prep_->atoms_tree.empty()) return;
  push_recursive(acc, 0, 0.0, atom_lo, atom_hi, born_sorted);
}

namespace {
void count_recursive(const Prepared& prep, double far_mult, std::uint32_t atom_node_id,
                     std::uint32_t q_leaf_id, BornSolver::TraversalStats& stats) {
  const OctreeNode& a = prep.atoms_tree.node(atom_node_id);
  const OctreeNode& q = prep.q_tree.node(q_leaf_id);
  const double d2 = distance2(a.centroid, q.centroid);
  const double reach = (a.radius + q.radius) * far_mult;
  if (d2 > reach * reach) {
    ++stats.far_terms;
    return;
  }
  if (a.is_leaf()) {
    stats.exact_pairs += static_cast<std::uint64_t>(a.count()) * q.count();
    return;
  }
  for (std::uint8_t c = 0; c < a.child_count; ++c)
    count_recursive(prep, far_mult, static_cast<std::uint32_t>(a.first_child) + c,
                    q_leaf_id, stats);
}
}  // namespace

BornSolver::TraversalStats BornSolver::count_qleaf_range(std::uint32_t leaf_lo,
                                                         std::uint32_t leaf_hi) const {
  TraversalStats stats;
  const auto leaves = prep_->q_tree.leaves();
  for (std::uint32_t i = leaf_lo; i < leaf_hi; ++i)
    count_recursive(*prep_, far_multiplier_, 0, leaves[i], stats);
  return stats;
}

}  // namespace gbpol
