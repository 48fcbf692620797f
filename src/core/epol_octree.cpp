#include "core/epol_octree.hpp"

#include <algorithm>
#include <cmath>

#include "core/approx_math.hpp"
#include "core/kernels_simd.hpp"

namespace gbpol {
namespace {

// Both sides of an epol near pair stream x/y/z/charge/born per atom.
constexpr std::size_t kEpolNearBytesPerPoint = 5 * sizeof(double);

}  // namespace

EpolFarField EpolFarField::make(double r_min, double r_max, double eps_epol) {
  EpolFarField field;
  field.r_min = r_min;
  field.r_max = r_max;
  field.log_one_plus_eps = std::log1p(eps_epol);
  field.m_bins = 1 + static_cast<int>(std::floor(std::log(r_max / r_min) /
                                                 field.log_one_plus_eps));
  field.m_bins = std::max(1, field.m_bins);
  // Bin-floor Born-radius products for every bin-index sum.
  field.rr_table.resize(static_cast<std::size_t>(2 * field.m_bins - 1));
  for (std::size_t k = 0; k < field.rr_table.size(); ++k)
    field.rr_table[k] = r_min * r_min *
                        std::exp(static_cast<double>(k) * field.log_one_plus_eps);
  return field;
}

void EpolSolver::adopt_far_field(const EpolFarField& field) {
  r_min_ = field.r_min;
  r_max_ = field.r_max;
  log_one_plus_eps_ = field.log_one_plus_eps;
  m_bins_ = field.m_bins;
  rr_table_ = field.rr_table;
}

void EpolSolver::leaf_bins(const Prepared& prep, std::span<const double> born,
                           const EpolFarField& field, std::uint32_t begin,
                           std::uint32_t end, double* bins) {
  for (std::uint32_t ai = begin; ai < end; ++ai)
    bins[field.bin_of(born[ai])] += prep.charge[ai];
}

void EpolSolver::fold_internal_bins(const Octree& tree, int m_bins,
                                    std::span<double> node_bins) {
  const auto nodes = tree.nodes();
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const OctreeNode& node = nodes[id];
    if (node.is_leaf()) continue;
    double* bins = node_bins.data() + id * static_cast<std::size_t>(m_bins);
    for (std::uint8_t c = 0; c < node.child_count; ++c) {
      const double* child =
          node_bins.data() + (static_cast<std::size_t>(node.first_child) + c) *
                                 static_cast<std::size_t>(m_bins);
      for (int k = 0; k < m_bins; ++k) bins[k] += child[k];
    }
  }
}

EpolSolver::EpolSolver(const Prepared& prep, std::span<const double> born_sorted,
                       const ApproxParams& params, const GBConstants& constants)
    : prep_(&prep),
      born_(born_sorted),
      far_multiplier_(params.epol_far_multiplier()),
      scale_(-0.5 * constants.tau() * constants.coulomb_kcal),
      approx_math_(params.approx_math) {
  const auto [min_it, max_it] = std::minmax_element(born_.begin(), born_.end());
  const EpolFarField field =
      EpolFarField::make(born_.empty() ? 1.0 : *min_it,
                         born_.empty() ? 1.0 : *max_it, params.eps_epol);
  adopt_far_field(field);

  // Per-node binned charges, bottom-up (children follow parents in the BFS
  // layout, so a reverse sweep folds children before parents read them).
  // Leaf rows come from the shared leaf_bins loop and internal rows from the
  // shared fold, so owned-mode ranks that gather every leaf row and fold
  // locally land on the identical table.
  const auto nodes = prep_->atoms_tree.nodes();
  node_bins_.assign(nodes.size() * static_cast<std::size_t>(m_bins_), 0.0);
  for (const std::uint32_t leaf_id : prep_->atoms_tree.leaves()) {
    const OctreeNode& node = nodes[leaf_id];
    leaf_bins(*prep_, born_, field, node.begin, node.end,
              node_bins_.data() +
                  static_cast<std::size_t>(leaf_id) * static_cast<std::size_t>(m_bins_));
  }
  fold_internal_bins(prep_->atoms_tree, m_bins_, node_bins_);
  node_bins_view_ = node_bins_;
}

EpolSolver::EpolSolver(const Prepared& prep, std::span<const double> born_sorted,
                       const ApproxParams& params, const GBConstants& constants,
                       const EpolFarField& field,
                       std::span<const double> node_bins_ext)
    : prep_(&prep),
      born_(born_sorted),
      far_multiplier_(params.epol_far_multiplier()),
      scale_(-0.5 * constants.tau() * constants.coulomb_kcal),
      approx_math_(params.approx_math) {
  adopt_far_field(field);
  node_bins_view_ = node_bins_ext;
}

[[gnu::noinline]] double EpolSolver::finish_energy_pair(double raw_far,
                                                        double raw_near) const {
  return scale_ * raw_far + scale_ * raw_near;
}

int EpolSolver::bin_of(double born_radius) const {
  const int k = static_cast<int>(std::floor(std::log(born_radius / r_min_) /
                                            log_one_plus_eps_));
  return std::clamp(k, 0, m_bins_ - 1);
}

EpolSolver::LeafView EpolSolver::make_leaf_view(std::uint32_t node_id) const {
  const OctreeNode& node = prep_->atoms_tree.node(node_id);
  return LeafView{node.centroid, node.radius, node.begin, node.end,
                  node_bins(node_id)};
}

EpolSolver::LeafView EpolSolver::make_truncated_view(
    std::uint32_t node_id, std::uint32_t atom_lo, std::uint32_t atom_hi,
    std::vector<double>& bin_storage) const {
  const OctreeNode& node = prep_->atoms_tree.node(node_id);
  LeafView view;
  view.begin = std::max(node.begin, atom_lo);
  view.end = std::min(node.end, atom_hi);
  // Re-aggregate the truncated atom set: centroid, enclosing radius, bins.
  // THIS is what makes atom-based division's error depend on the boundaries.
  Vec3 c;
  for (std::uint32_t ai = view.begin; ai < view.end; ++ai)
    c += prep_->atoms_tree.point(ai);
  view.centroid = c / static_cast<double>(view.end - view.begin);
  double r2 = 0.0;
  for (std::uint32_t ai = view.begin; ai < view.end; ++ai)
    r2 = std::max(r2, distance2(prep_->atoms_tree.point(ai), view.centroid));
  view.radius = std::sqrt(r2);
  bin_storage.assign(static_cast<std::size_t>(m_bins_), 0.0);
  for (std::uint32_t ai = view.begin; ai < view.end; ++ai)
    bin_storage[static_cast<std::size_t>(bin_of(born_[ai]))] += prep_->charge[ai];
  view.bins = bin_storage.data();
  return view;
}

template <bool kApproxMath>
double EpolSolver::pair_sum_exact(std::uint32_t u_begin, std::uint32_t u_end,
                                  const LeafView& v) const {
  return epol_near_aos<kApproxMath>(prep_->atoms_tree.points().data(),
                                    prep_->charge.data(), born_.data(), u_begin,
                                    u_end, v.begin, v.end);
}

template <bool kApproxMath>
double EpolSolver::binned_far_term(const double* u_bins, const double* v_bins,
                                   double d2) const {
  double sum = 0.0;
  for (int i = 0; i < m_bins_; ++i) {
    const double qu = u_bins[i];
    if (qu == 0.0) continue;
    double inner = 0.0;
    for (int j = 0; j < m_bins_; ++j) {
      const double qv = v_bins[j];
      if (qv == 0.0) continue;
      const double rr = rr_table_[static_cast<std::size_t>(i + j)];
      double inv_f;
      if constexpr (kApproxMath) {
        inv_f = fast_rsqrt(d2 + rr * fast_exp(-d2 / (4.0 * rr)));
      } else {
        inv_f = 1.0 / std::sqrt(d2 + rr * std::exp(-d2 / (4.0 * rr)));
      }
      inner += qv * inv_f;
    }
    sum += qu * inner;
  }
  return sum;
}

template <bool kApproxMath>
double EpolSolver::recurse_single(std::uint32_t u_node, const LeafView& v) const {
  const OctreeNode& u = prep_->atoms_tree.node(u_node);
  if (u.is_leaf()) {
    return pair_sum_exact<kApproxMath>(u.begin, u.end, v);  // Fig. 3 line 1
  }
  const double d2 = distance2(u.centroid, v.centroid);
  const double reach = (u.radius + v.radius) * far_multiplier_;
  if (d2 > reach * reach) {  // Fig. 3 line 2
    return binned_far_term<kApproxMath>(node_bins(u_node), v.bins, d2);
  }
  double sum = 0.0;  // Fig. 3 line 3
  for (std::uint8_t c = 0; c < u.child_count; ++c)
    sum += recurse_single<kApproxMath>(static_cast<std::uint32_t>(u.first_child) + c, v);
  return sum;
}

double EpolSolver::energy_for_leaf_range(std::uint32_t leaf_lo,
                                         std::uint32_t leaf_hi) const {
  if (prep_->atoms_tree.empty()) return 0.0;
  const auto leaves = prep_->atoms_tree.leaves();
  double raw = 0.0;
  for (std::uint32_t i = leaf_lo; i < leaf_hi; ++i) {
    const LeafView v = make_leaf_view(leaves[i]);
    raw += approx_math_ ? recurse_single<true>(0, v) : recurse_single<false>(0, v);
  }
  return scale_ * raw;
}

double EpolSolver::energy_for_atom_range(std::uint32_t atom_lo,
                                         std::uint32_t atom_hi) const {
  if (prep_->atoms_tree.empty() || atom_lo >= atom_hi) return 0.0;
  const auto leaves = prep_->atoms_tree.leaves();
  double sum = 0.0;
  std::vector<double> bin_storage;
  for (const std::uint32_t leaf_id : leaves) {
    const OctreeNode& node = prep_->atoms_tree.node(leaf_id);
    if (node.end <= atom_lo || node.begin >= atom_hi) continue;
    const LeafView v = (node.begin >= atom_lo && node.end <= atom_hi)
                           ? make_leaf_view(leaf_id)
                           : make_truncated_view(leaf_id, atom_lo, atom_hi, bin_storage);
    sum += approx_math_ ? recurse_single<true>(0, v) : recurse_single<false>(0, v);
  }
  return scale_ * sum;
}

InteractionLists::TileCost EpolSolver::tile_cost() const {
  return {/*near_target_bytes_per_point=*/kEpolNearBytesPerPoint,
          /*near_source_bytes_per_point=*/kEpolNearBytesPerPoint,
          // A far entry streams two m_bins-wide charge histograms + two nodes.
          /*far_bytes_per_entry=*/2 * static_cast<std::size_t>(m_bins_) *
                  sizeof(double) +
              2 * sizeof(OctreeNode)};
}

ListBuildParams EpolSolver::list_params(std::uint32_t leaf_lo,
                                        std::uint32_t leaf_hi) const {
  return {.far_multiplier = far_multiplier_,
          .exact_at_target_leaf = true,  // Fig. 3 line 1: leaves are exact even if far
          .source_leaf_lo = leaf_lo,
          .source_leaf_hi = leaf_hi};
}

InteractionLists EpolSolver::build_lists(std::uint32_t leaf_lo,
                                         std::uint32_t leaf_hi) const {
  InteractionLists lists = build_interaction_lists(prep_->atoms_tree, prep_->atoms_tree,
                                                   list_params(leaf_lo, leaf_hi));
  lists.build_tiles(prep_->atoms_tree, prep_->atoms_tree, tile_cost());
  return lists;
}

// The near kernel is the runtime-dispatched SIMD tier (looked up once per
// evaluator), else the always-available SoA template. A mirrored entry also
// stands for its twin; doubling is exact.
template <bool kApproxMath>
class EpolSolver::EntryEval {
 public:
  explicit EntryEval(const EpolSolver& solver) : s_(solver) {
    if (const SimdKernelTable* simd = simd_kernel_table())
      fn_ = kApproxMath ? simd->epol_near_approx : simd->epol_near_exact;
  }

  double far(std::uint32_t target_node, std::uint32_t source_leaf) const {
    const Octree& tree = s_.prep_->atoms_tree;
    const double d2 =
        distance2(tree.node(target_node).centroid, tree.node(source_leaf).centroid);
    return s_.binned_far_term<kApproxMath>(s_.node_bins(target_node),
                                           s_.node_bins(source_leaf), d2);
  }

  double near(std::uint32_t target_leaf, std::uint32_t source_leaf, bool mirrored) const {
    const PointsSoA& a = s_.prep_->atoms_soa;
    const OctreeNode& u = s_.prep_->atoms_tree.node(target_leaf);
    const OctreeNode& v = s_.prep_->atoms_tree.node(source_leaf);
    const double* charge = s_.prep_->charge.data();
    const double* born = s_.born_.data();
    const double sum =
        fn_ != nullptr
            ? fn_(a.x.data(), a.y.data(), a.z.data(), charge, born, u.begin, u.end,
                  v.begin, v.end)
            : epol_near_soa<kApproxMath>(a.x.data(), a.y.data(), a.z.data(), charge, born,
                                         u.begin, u.end, v.begin, v.end);
    return mirrored ? 2.0 * sum : sum;
  }

 private:
  const EpolSolver& s_;
  SimdKernelTable::EpolNearFn fn_ = nullptr;
};

template <bool kApproxMath>
void EpolSolver::far_range_impl(const InteractionLists& lists, std::size_t lo,
                                std::size_t hi, double& sum) const {
  const EntryEval<kApproxMath> eval(*this);
  // Far bin tiles: boundaries only, entry order unchanged — bit-identical.
  for_each_tile_range(lists.far_tile_start, lo, hi, [&](std::size_t tlo,
                                                        std::size_t thi) {
    for (std::size_t i = tlo; i < thi; ++i)
      sum += eval.far(lists.far[i].target_node, lists.far[i].source_leaf);
  });
}

template <bool kApproxMath>
void EpolSolver::near_range_impl(const InteractionLists& lists, std::size_t lo,
                                 std::size_t hi, double& sum) const {
  const EntryEval<kApproxMath> eval(*this);
  for_each_tile_range(lists.near_tile_start, lo, hi, [&](std::size_t tlo,
                                                         std::size_t thi) {
    for (std::size_t i = tlo; i < thi; ++i) {
      const InteractionLists::Near& e = lists.near[i];
      sum += eval.near(e.target_leaf, e.source_leaf, e.mirrored);
    }
  });
}

template <bool kApproxMath>
void EpolSolver::walk_impl(std::uint32_t leaf_lo, std::uint32_t leaf_hi, double& raw_far,
                           double& raw_near) const {
  // Far and near terms fold into their own running sums, each in list order.
  struct Visit {
    const EntryEval<kApproxMath> eval;
    double& far_sum;
    double& near_sum;
    void far(std::uint32_t t, std::uint32_t s) { far_sum += eval.far(t, s); }
    void near(std::uint32_t t, std::uint32_t s, bool m) {
      near_sum += eval.near(t, s, m);
    }
  } visit{EntryEval<kApproxMath>(*this), raw_far, raw_near};
  walk_interactions(prep_->atoms_tree, prep_->atoms_tree, list_params(leaf_lo, leaf_hi),
                    visit);
}

void EpolSolver::accumulate_energy_walk(std::uint32_t leaf_lo, std::uint32_t leaf_hi,
                                        double& raw_far, double& raw_near) const {
  approx_math_ ? walk_impl<true>(leaf_lo, leaf_hi, raw_far, raw_near)
               : walk_impl<false>(leaf_lo, leaf_hi, raw_far, raw_near);
}

void EpolSolver::accumulate_energy_far_range(const InteractionLists& lists,
                                             std::size_t lo, std::size_t hi,
                                             double& raw) const {
  approx_math_ ? far_range_impl<true>(lists, lo, hi, raw)
               : far_range_impl<false>(lists, lo, hi, raw);
}

void EpolSolver::accumulate_energy_near_range(const InteractionLists& lists,
                                              std::size_t lo, std::size_t hi,
                                              double& raw) const {
  approx_math_ ? near_range_impl<true>(lists, lo, hi, raw)
               : near_range_impl<false>(lists, lo, hi, raw);
}

double EpolSolver::energy_far_range(const InteractionLists& lists, std::size_t lo,
                                    std::size_t hi) const {
  double raw = 0.0;
  accumulate_energy_far_range(lists, lo, hi, raw);
  return scale_ * raw;
}

double EpolSolver::energy_near_range(const InteractionLists& lists, std::size_t lo,
                                     std::size_t hi) const {
  double raw = 0.0;
  accumulate_energy_near_range(lists, lo, hi, raw);
  return scale_ * raw;
}

double EpolSolver::energy_from_lists(const InteractionLists& lists) const {
  double raw_far = 0.0, raw_near = 0.0;
  accumulate_energy_far_range(lists, 0, lists.far.size(), raw_far);
  accumulate_energy_near_range(lists, 0, lists.near.size(), raw_near);
  return finish_energy_pair(raw_far, raw_near);
}

}  // namespace gbpol
