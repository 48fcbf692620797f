// Octree-based r^6 Born-radius approximation (Fig. 2 of the paper).
//
// APPROX-INTEGRALS: the modified algorithm of the paper — for each LEAF Q of
// the quadrature-point octree, traverse the atoms octree; far (A, Q) pairs
// deposit one aggregated term into s_A, near leaf pairs compute exact
// per-atom terms. Every driver divides it by Q-leaf segments (node-based
// division).
//
// It deposits into a BornAccumulator (per-node s_A + per-atom s_a), which
// PUSH-INTEGRALS-TO-ATOMS then resolves top-down into Born radii:
//   R_a = clamp( ((s_a + sum of ancestor s_A) / 4pi)^(-1/3), r_a, R_max ).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/interaction_lists.hpp"
#include "core/prepared.hpp"

namespace gbpol {

// Partial-integral accumulator. Stored as ONE flat buffer (nodes first, then
// atoms) so the distributed drivers can allreduce it in a single collective
// (Fig. 4 step 3).
class BornAccumulator {
 public:
  BornAccumulator() = default;
  BornAccumulator(std::size_t num_nodes, std::size_t num_atoms)
      : num_nodes_(num_nodes), data_(num_nodes + num_atoms, 0.0) {}

  double& node_s(std::uint32_t node_id) { return data_[node_id]; }
  double node_s(std::uint32_t node_id) const { return data_[node_id]; }
  double& atom_s(std::uint32_t sorted_slot) { return data_[num_nodes_ + sorted_slot]; }
  double atom_s(std::uint32_t sorted_slot) const { return data_[num_nodes_ + sorted_slot]; }

  // Base of the per-atom segment (slot-indexed); the batched near-field
  // kernels write through this pointer.
  double* atom_s_data() { return data_.data() + num_nodes_; }

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  void clear() { std::fill(data_.begin(), data_.end(), 0.0); }

  // Element-wise merge (used to fold per-worker accumulators, in worker
  // order, before the cross-rank allreduce).
  void add(const BornAccumulator& other);

 private:
  std::size_t num_nodes_ = 0;
  std::vector<double> data_;
};

class BornSolver {
 public:
  BornSolver(const Prepared& prep, const ApproxParams& params)
      : prep_(&prep),
        far_multiplier_(params.born_far_multiplier()),
        kernel_(params.radius_kernel),
        dipole_(params.born_dipole_correction) {}

  BornAccumulator make_accumulator() const {
    return BornAccumulator(prep_->atoms_tree.nodes().size(), prep_->num_atoms());
  }

  // Single-tree pass: APPROX-INTEGRALS for every quadrature-tree leaf with
  // index in [leaf_lo, leaf_hi) (indices into q_tree.leaves()). This is the
  // TraversalMode::kRecursive engine, kept as the A/B baseline.
  void accumulate_qleaf_range(std::uint32_t leaf_lo, std::uint32_t leaf_hi,
                              BornAccumulator& acc) const;

  // --- Interaction-list engine (TraversalMode::kList, the default) ---------
  // One opening-criterion walk yields the same (atom_node x q_leaf)
  // decomposition as accumulate_qleaf_range. The walk over q-tree leaves
  // [q_leaf_lo, q_leaf_hi):
  ListBuildParams list_params(std::uint32_t q_leaf_lo, std::uint32_t q_leaf_hi) const;
  // Evaluates every entry the moment the walk reaches it (batched SoA/SIMD
  // near kernels), storing no list: what every Engine pass runs. The result
  // is bit-identical to build_lists + accumulate_lists over the same range.
  void accumulate_walk(std::uint32_t q_leaf_lo, std::uint32_t q_leaf_hi,
                       BornAccumulator& acc) const;
  // Materializes the walk as flat near/far lists for consumers that stream
  // them more than once (TrajectoryDriver) or time the layers apart; they
  // evaluate as chunked loops over list segments.
  InteractionLists build_lists(std::uint32_t q_leaf_lo, std::uint32_t q_leaf_hi) const;
  // Far / near list segments [lo, hi). Far entries write node_s, near
  // entries write atom_s, so segments of the SAME list on distinct
  // accumulators merge without double counting.
  void accumulate_far_range(const InteractionLists& lists, std::size_t lo,
                            std::size_t hi, BornAccumulator& acc) const;
  void accumulate_near_range(const InteractionLists& lists, std::size_t lo,
                             std::size_t hi, BornAccumulator& acc) const;
  // Whole-list convenience (far then near), serial.
  void accumulate_lists(const InteractionLists& lists, BornAccumulator& acc) const;

  // Near evaluation restricted to an explicit subset of near-list entry
  // indices, given in ASCENDING order. Because atom_s slots of a target leaf
  // are touched only by that leaf's near entries, replaying all entries of a
  // set of target leaves (ascending) into a fresh accumulator reproduces the
  // full pass's per-slot fold order exactly — the bit-identity the
  // incremental trajectory engine's dirty-leaf refresh relies on.
  void accumulate_near_entries(const InteractionLists& lists,
                               std::span<const std::uint32_t> entry_ids,
                               BornAccumulator& acc) const;

  // PUSH-INTEGRALS-TO-ATOMS for sorted atom slots in [atom_lo, atom_hi);
  // writes R into born_sorted (atoms_tree order, full-size span).
  void push_to_atoms(const BornAccumulator& acc, std::uint32_t atom_lo,
                     std::uint32_t atom_hi, std::span<double> born_sorted) const;

  // Number of (node|leaf)-level interactions the last-configured criterion
  // would make far vs exact — exposed for tests/ablation via traversal
  // statistics.
  struct TraversalStats {
    std::uint64_t far_terms = 0;
    std::uint64_t exact_pairs = 0;
  };
  TraversalStats count_qleaf_range(std::uint32_t leaf_lo, std::uint32_t leaf_hi) const;

 private:
  template <int Power, bool Dipole>
  void approx_integrals(std::uint32_t atom_node, std::uint32_t q_leaf,
                        BornAccumulator& acc) const;
  template <int Power, bool Dipole>
  void far_range_impl(const InteractionLists& lists, std::size_t lo, std::size_t hi,
                      BornAccumulator& acc) const;
  template <int Power>
  void near_range_impl(const InteractionLists& lists, std::size_t lo, std::size_t hi,
                       BornAccumulator& acc) const;
  template <int Power, bool Dipole>
  void walk_impl(std::uint32_t q_leaf_lo, std::uint32_t q_leaf_hi,
                 BornAccumulator& acc) const;
  template <int Power>
  void near_entries_impl(const InteractionLists& lists,
                         std::span<const std::uint32_t> entry_ids,
                         BornAccumulator& acc) const;
  void push_recursive(const BornAccumulator& acc, std::uint32_t atom_node,
                      double inherited, std::uint32_t atom_lo, std::uint32_t atom_hi,
                      std::span<double> born_sorted) const;
  bool is_far(const OctreeNode& a, const OctreeNode& q) const;

  const Prepared* prep_;
  double far_multiplier_;
  RadiusKernel kernel_;
  bool dipole_;
};

}  // namespace gbpol
