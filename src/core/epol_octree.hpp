// Octree-based polarization-energy approximation (Fig. 3 of the paper,
// APPROX-EPOL).
//
// Far-field scheme: atoms cannot be collapsed to a single pseudo-atom for
// E_pol because f_GB depends nonlinearly on both Born radii, so the paper
// bins each node's charge by Born radius in geometric bins
//   bin k: R in [R_min (1+eps)^k, R_min (1+eps)^(k+1)),
// and a far (U, V) pair contributes
//   sum_{i,j} q_U[i] q_V[j] / f_GB(r_UV^2, R_min^2 (1+eps)^(i+j))
// — every pair's R_u R_v product is approximated by its bin-floor product,
// and every pair's distance by the centroid distance r_UV.
//
// Two division strategies (paper §IV-A):
//  * energy_for_leaf_range: the node-based (node-node) division of Fig. 4
//    step 6 — rank i interacts its i-th segment of atom-tree LEAVES with the
//    whole tree. Error is independent of the segmentation.
//  * energy_for_atom_range: atom-based division — a rank owns an atom index
//    range, truncating boundary leaves; truncated leaves get re-aggregated
//    pseudo-particles, which is why the paper observes the error CHANGING
//    with the process count for this scheme.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/interaction_lists.hpp"
#include "core/prepared.hpp"

namespace gbpol {

// The far-field bin model every E_pol far evaluation keys on: geometric
// Born-radius bins of width (1+eps) starting at r_min, plus the bin-floor
// radius-product table. Factored out of EpolSolver so owned-mode runs
// (core/halo_exchange.hpp) and the owned footprint model build
// the IDENTICAL model from collectively-agreed (r_min, r_max) — the bin
// count and table bits match the replicated constructor exactly.
struct EpolFarField {
  double r_min = 1.0;
  double r_max = 1.0;
  double log_one_plus_eps = 1.0;
  int m_bins = 1;
  std::vector<double> rr_table;  // r_min^2 (1+eps)^(i+j), indexed i+j

  // M_eps = floor(log_{1+eps}(r_max/r_min)) + 1 geometric bins cover
  // [r_min, r_max] with r_max landing in the last bin.
  static EpolFarField make(double r_min, double r_max, double eps_epol);

  int bin_of(double born_radius) const {
    const int k = static_cast<int>(
        std::floor(std::log(born_radius / r_min) / log_one_plus_eps));
    return std::clamp(k, 0, m_bins - 1);
  }
  double bin_radius_floor(int k) const {
    return r_min * std::exp(static_cast<double>(k) * log_one_plus_eps);
  }
};

class EpolSolver {
 public:
  // `born_sorted` is in atoms_tree order and must outlive the solver.
  EpolSolver(const Prepared& prep, std::span<const double> born_sorted,
             const ApproxParams& params, const GBConstants& constants);

  // Injected-state constructor (owned-mode runs): the caller supplies the
  // far-field model (built from collectively-agreed r_min/r_max) and an
  // external node_bins store (nodes x field.m_bins doubles, flattened; must
  // outlive the solver) instead of having the solver scan the full Born
  // array and build the table itself. `born_sorted` may be sparse (only
  // owned + halo slots valid) as long as every slot the evaluated lists
  // touch is filled.
  EpolSolver(const Prepared& prep, std::span<const double> born_sorted,
             const ApproxParams& params, const GBConstants& constants,
             const EpolFarField& field, std::span<const double> node_bins_ext);

  // THE leaf-row loop of the replicated constructor, shared so owned-mode
  // gathered rows are bit-identical: adds leaf [begin, end)'s Born-binned
  // charges into `bins` (field.m_bins doubles, caller-zeroed).
  static void leaf_bins(const Prepared& prep, std::span<const double> born,
                        const EpolFarField& field, std::uint32_t begin,
                        std::uint32_t end, double* bins);

  // Folds complete child rows into internal-node rows, bottom-up (reverse
  // BFS sweep; leaf rows must already be filled). Identical fold order to
  // the replicated constructor, so a rank holding every leaf row reproduces
  // every internal row bit-exactly.
  static void fold_internal_bins(const Octree& tree, int m_bins,
                                 std::span<double> node_bins);

  // Energy contribution of atom-tree leaves [leaf_lo, leaf_hi) (indices into
  // atoms_tree.leaves()) interacting with the ENTIRE tree. Summing over all
  // leaves yields the full E_pol (every ordered pair counted once). This is
  // the TraversalMode::kRecursive engine, oct_serial's A/B baseline.
  double energy_for_leaf_range(std::uint32_t leaf_lo, std::uint32_t leaf_hi) const;

  // --- Interaction-list engine (TraversalMode::kList, the default) ---------
  // One opening-criterion walk yields the same (u_node x v_leaf)
  // decomposition as energy_for_leaf_range, except that each mirrored near
  // leaf pair is evaluated once at weight 2. The walk over atom-tree source
  // leaves [leaf_lo, leaf_hi):
  ListBuildParams list_params(std::uint32_t leaf_lo, std::uint32_t leaf_hi) const;
  // Materializes the walk as flat near/far lists for consumers that stream
  // them more than once (TrajectoryDriver) or time the layers apart;
  // energy_*_range evaluate chunkable list segments (already scaled by
  // -tau/2 ke, so partial sums add up to E_pol).
  InteractionLists build_lists(std::uint32_t leaf_lo, std::uint32_t leaf_hi) const;
  double energy_far_range(const InteractionLists& lists, std::size_t lo,
                          std::size_t hi) const;
  double energy_near_range(const InteractionLists& lists, std::size_t lo,
                           std::size_t hi) const;
  double energy_from_lists(const InteractionLists& lists) const;

  // --- raw accumulation (Engine passes) --------------------------------------
  // The energy_* functions above fold entries sequentially into one running
  // sum and apply the -tau/2 ke scale ONCE at the end. These entry points
  // expose that running sum: the canonical chunk fold keeps one raw partial
  // per chunk, sums them in chunk order and scales the totals once.
  // Continuing one `raw` across consecutive sub-ranges reproduces a single
  // pass over their union operation-for-operation (bit-identically). The
  // public list energy functions are wrappers over these, guaranteeing the
  // sequences agree.
  void accumulate_energy_far_range(const InteractionLists& lists, std::size_t lo,
                                   std::size_t hi, double& raw) const;
  void accumulate_energy_near_range(const InteractionLists& lists, std::size_t lo,
                                    std::size_t hi, double& raw) const;
  // Evaluates every entry the moment the walk reaches it, storing no list:
  // what every Engine pass runs. Continues the far and near running sums
  // exactly as accumulate_energy_far_range / _near_range over build_lists'
  // entries would (bit-identical, so one running sum may mix the two).
  void accumulate_energy_walk(std::uint32_t leaf_lo, std::uint32_t leaf_hi,
                              double& raw_far, double& raw_near) const;
  // Two-term finish for every kList energy (separate far/near raw sums):
  // energy_from_lists and the drivers call it.
  // Deliberately out of line (and noinline, so not even this TU inlines
  // it): the expression scale*far + scale*near is FMA-contractible, and if
  // it inlined into more than one call site the compiler could contract one
  // but not another, breaking the bit-equality contract between them. One
  // compiled instance means one rounding pattern everywhere.
  double finish_energy_pair(double raw_far, double raw_near) const;

  // Atom-based division: contribution of sorted atom slots [atom_lo, atom_hi).
  double energy_for_atom_range(std::uint32_t atom_lo, std::uint32_t atom_hi) const;

  int num_bins() const { return m_bins_; }
  double r_min() const { return r_min_; }
  double r_max() const { return r_max_; }

  // Internals shared with the gradient solver (core/forces.hpp): per-node
  // binned charges and bin-floor radius representatives.
  const double* node_bins_ptr(std::uint32_t node_id) const { return node_bins(node_id); }
  double bin_radius_floor(int k) const {
    return r_min_ * std::exp(static_cast<double>(k) * log_one_plus_eps_);
  }
  double far_multiplier() const { return far_multiplier_; }

 private:
  struct LeafView {
    Vec3 centroid;
    double radius = 0.0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    const double* bins = nullptr;  // m_bins_ charges binned by Born radius
  };

  int bin_of(double born_radius) const;
  const double* node_bins(std::uint32_t node_id) const {
    return node_bins_view_.data() + static_cast<std::size_t>(node_id) * m_bins_;
  }
  // Shared tail of both constructors: adopts the far-field model into the
  // flat members the kernels read.
  void adopt_far_field(const EpolFarField& field);
  // Per-entry streamed-bytes estimates for the L2 tile index (depends on
  // m_bins_, so it cannot be a file-level constant like the Born one).
  InteractionLists::TileCost tile_cost() const;

  template <bool kApproxMath>
  double pair_sum_exact(std::uint32_t u_begin, std::uint32_t u_end,
                        const LeafView& v) const;
  template <bool kApproxMath>
  double binned_far_term(const double* u_bins, const double* v_bins, double d2) const;
  // One far or near entry's raw term: the per-entry code of the list and
  // walk paths alike (defined in epol_octree.cpp).
  template <bool kApproxMath>
  class EntryEval;
  // Both fold entries one at a time into `sum` (no local partial), so the
  // raw-accumulation entry points above can chain across call boundaries.
  template <bool kApproxMath>
  void far_range_impl(const InteractionLists& lists, std::size_t lo,
                      std::size_t hi, double& sum) const;
  template <bool kApproxMath>
  void near_range_impl(const InteractionLists& lists, std::size_t lo,
                       std::size_t hi, double& sum) const;
  template <bool kApproxMath>
  void walk_impl(std::uint32_t leaf_lo, std::uint32_t leaf_hi, double& raw_far,
                 double& raw_near) const;
  template <bool kApproxMath>
  double recurse_single(std::uint32_t u_node, const LeafView& v) const;

  LeafView make_leaf_view(std::uint32_t node_id) const;
  LeafView make_truncated_view(std::uint32_t node_id, std::uint32_t atom_lo,
                               std::uint32_t atom_hi, std::vector<double>& bin_storage) const;

  const Prepared* prep_;
  std::span<const double> born_;
  double far_multiplier_;
  double scale_;  // -tau/2 * ke
  bool approx_math_;
  double r_min_ = 1.0, r_max_ = 1.0;
  double log_one_plus_eps_ = 1.0;
  int m_bins_ = 1;
  std::vector<double> rr_table_;   // R_min^2 (1+eps)^(i+j), indexed i+j
  std::vector<double> node_bins_;  // nodes x m_bins_, flattened (owning ctor)
  // All reads go through the view: the owning constructor points it at
  // node_bins_, the injected-state constructor at the caller's store.
  std::span<const double> node_bins_view_;
};

}  // namespace gbpol
