#include "core/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "core/forces.hpp"

#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace gbpol {
namespace {

bool same_bits(const Vec3& a, const Vec3& b) {
  return std::memcmp(&a, &b, sizeof(Vec3)) == 0;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Deterministic nearest-atom query over an octree built on the atom centers:
// prune a subtree only when its lower distance bound strictly exceeds the
// current best, break exact ties toward the smaller ORIGINAL index. The
// result depends only on the point set, never on traversal luck, so the
// surface attachment map replays bit-identically across runs and restarts.
void nearest_recurse(const Octree& tree, std::uint32_t node_id, const Vec3& p,
                     double& best_d2, std::uint32_t& best_orig) {
  const OctreeNode& node = tree.node(node_id);
  const double center_d = std::sqrt(distance2(p, node.centroid));
  const double lb = std::max(0.0, center_d - node.radius);
  if (lb * lb > best_d2) return;
  if (node.is_leaf()) {
    for (std::uint32_t slot = node.begin; slot < node.end; ++slot) {
      const double d2 = distance2(p, tree.point(slot));
      const std::uint32_t orig = tree.original_index(slot);
      if (d2 < best_d2 || (d2 == best_d2 && orig < best_orig)) {
        best_d2 = d2;
        best_orig = orig;
      }
    }
    return;
  }
  for (std::uint8_t c = 0; c < node.child_count; ++c)
    nearest_recurse(tree, static_cast<std::uint32_t>(node.first_child) + c, p,
                    best_d2, best_orig);
}

std::uint32_t nearest_atom(const Octree& tree, const Vec3& p) {
  double best_d2 = std::numeric_limits<double>::infinity();
  std::uint32_t best_orig = 0;
  nearest_recurse(tree, 0, p, best_d2, best_orig);
  return best_orig;
}

std::uint64_t energy_bits(double e) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &e, sizeof(bits));
  return bits;
}

}  // namespace

// Between-step evaluation caches for the serial path. Everything here is a
// pure function of (anchor structures, current payload, current Born bits),
// so "valid" always means "bit-identical to what a from-scratch recompute
// would produce" — the kCold differential enforces exactly that.
struct TrajectoryDriver::Caches {
  InteractionLists born_lists;  // atoms-tree targets x q-tree source leaves
  bool born_lists_valid = false;
  BornAccumulator born_acc;  // node_s: anchor-only; atom_s: per-target-leaf
  bool born_acc_valid = false;

  InteractionLists epol_lists;  // atoms-tree targets x atom source leaves
  bool epol_lists_valid = false;
  // Per-ENTRY cached raw folds of the E_pol near list. Entry granularity
  // (not per-source-leaf segments): under the APPROX-EPOL criterion target
  // LEAVES are evaluated exactly at any distance, so a single source leaf's
  // entries reference leaves all over the tree and one touched leaf anywhere
  // would dirty every coarser-grained segment.
  std::vector<double> entry_partial;
  bool partials_valid = false;

  void invalidate() {
    born_lists_valid = false;
    born_acc_valid = false;
    epol_lists_valid = false;
    partials_valid = false;
  }
};

TrajectoryDriver::TrajectoryDriver(const Molecule& mol,
                                   const TrajectoryOptions& topt,
                                   const ApproxParams& params,
                                   const GBConstants& constants)
    : mol_(mol), topt_(topt), params_(params), constants_(constants) {
  cur_pos_.resize(mol_.size());
  for (std::size_t i = 0; i < mol_.size(); ++i) cur_pos_[i] = mol_.atom(i).pos;
  anchor_pos_ = cur_pos_;

  // Pin the atom Morton domain at the initial fitted box so the step-0 build
  // is bit-identical to the classic Prepared::build; later re-anchors keep
  // quantizing against it (drifted points clamp, never break).
  atoms_domain_ = bounding_box(cur_pos_);

  resurface(cur_pos_);
  q_domain_ = bounding_box(anchor_q_pos_);

  caches_ = std::make_unique<Caches>();
  rebuild_structures();

  if (!topt_.campaign_dir.empty())
    journal_ = std::make_unique<ckpt::Journal>(topt_.campaign_dir +
                                               "/trajectory.journal");
}

TrajectoryDriver::~TrajectoryDriver() = default;

double TrajectoryDriver::atom_leaf_margin(std::uint32_t leaf_node_id) const {
  return atom_leaf_margin_[leaf_node_id];
}

void TrajectoryDriver::resurface(std::span<const Vec3> positions) {
  Molecule now("trajectory", std::vector<Atom>(mol_.atoms().begin(),
                                               mol_.atoms().end()));
  for (std::size_t i = 0; i < now.size(); ++i) now.atoms()[i].pos = positions[i];
  quad_ = surface::molecular_surface_quadrature(now, topt_.surface);

  // Rigid attachment: each quadrature point rides its nearest atom. Normals
  // and weights stay frozen between marches (translation-only attachment);
  // resurface_every bounds how long that approximation lives.
  std::vector<Vec3> pos(positions.begin(), positions.end());
  const Octree nn_tree = Octree::build(pos);
  const std::size_t nq = quad_.size();
  q_support_.resize(nq);
  q_offset_.resize(nq);
  for (std::size_t i = 0; i < nq; ++i) {
    q_support_[i] = nearest_atom(nn_tree, quad_.points[i]);
    q_offset_[i] = quad_.points[i] - positions[q_support_[i]];
  }
  cur_q_pos_ = quad_.points;
  anchor_q_pos_ = cur_q_pos_;
  // A fresh surface is a full re-anchor of the atoms too: the new q geometry
  // is only consistent with the current atom positions.
  anchor_pos_.assign(positions.begin(), positions.end());
}

void TrajectoryDriver::rebuild_structures() {
  // Deterministic rebuild from the anchor state: a pure function of
  // (anchors, pinned domains, leaf capacity), so kCold's every-step rebuild
  // reproduces the incremental path's structures bit-for-bit.
  Molecule anchor_mol("trajectory", std::vector<Atom>(mol_.atoms().begin(),
                                                      mol_.atoms().end()));
  for (std::size_t i = 0; i < anchor_mol.size(); ++i)
    anchor_mol.atoms()[i].pos = anchor_pos_[i];
  surface::SurfaceQuadrature anchor_quad;
  anchor_quad.points = anchor_q_pos_;
  anchor_quad.normals = quad_.normals;
  anchor_quad.weights = quad_.weights;

  prep_ = Prepared::build(anchor_mol, anchor_quad, params_.leaf_capacity,
                          atoms_domain_, q_domain_);

  const std::size_t n_atoms = prep_.num_atoms();
  const std::size_t n_q = prep_.num_qpoints();
  atom_slot_.resize(n_atoms);
  for (std::uint32_t slot = 0; slot < n_atoms; ++slot)
    atom_slot_[prep_.atoms_tree.original_index(slot)] = slot;
  q_slot_.resize(n_q);
  for (std::uint32_t slot = 0; slot < n_q; ++slot)
    q_slot_[prep_.q_tree.original_index(slot)] = slot;

  atom_leaf_of_.assign(n_atoms, 0);
  atom_leaf_margin_.assign(prep_.atoms_tree.nodes().size(), 0.0);
  for (const std::uint32_t leaf_id : prep_.atoms_tree.leaves()) {
    const OctreeNode& node = prep_.atoms_tree.node(leaf_id);
    atom_leaf_margin_[leaf_id] =
        topt_.skin + topt_.skin_per_radius * node.radius;
    for (std::uint32_t slot = node.begin; slot < node.end; ++slot)
      atom_leaf_of_[slot] = leaf_id;
  }
  q_leaf_of_.assign(n_q, 0);
  q_leaf_margin_.assign(prep_.q_tree.nodes().size(), 0.0);
  for (const std::uint32_t leaf_id : prep_.q_tree.leaves()) {
    const OctreeNode& node = prep_.q_tree.node(leaf_id);
    q_leaf_margin_[leaf_id] = topt_.skin + topt_.skin_per_radius * node.radius;
    for (std::uint32_t slot = node.begin; slot < node.end; ++slot)
      q_leaf_of_[slot] = leaf_id;
  }

  // Patch the full payload to the current positions: topology/geometry stays
  // anchored, the near kernels see the trajectory's real coordinates.
  for (std::uint32_t slot = 0; slot < n_atoms; ++slot) {
    const Vec3& p = cur_pos_[prep_.atoms_tree.original_index(slot)];
    prep_.atoms_tree.set_point(slot, p);
    prep_.atoms_soa.x[slot] = p.x;
    prep_.atoms_soa.y[slot] = p.y;
    prep_.atoms_soa.z[slot] = p.z;
  }
  for (std::uint32_t slot = 0; slot < n_q; ++slot) {
    const Vec3& p = cur_q_pos_[prep_.q_tree.original_index(slot)];
    prep_.q_tree.set_point(slot, p);
    prep_.q_soa.x[slot] = p.x;
    prep_.q_soa.y[slot] = p.y;
    prep_.q_soa.z[slot] = p.z;
  }

  if (caches_) caches_->invalidate();
  structures_stale_ = false;
}

void TrajectoryDriver::patch_payload(std::span<const std::uint32_t> moved_orig,
                                     std::span<const std::uint32_t> moved_q_orig) {
  for (const std::uint32_t i : moved_orig) {
    const std::uint32_t slot = atom_slot_[i];
    const Vec3& p = cur_pos_[i];
    prep_.atoms_tree.set_point(slot, p);
    prep_.atoms_soa.x[slot] = p.x;
    prep_.atoms_soa.y[slot] = p.y;
    prep_.atoms_soa.z[slot] = p.z;
  }
  for (const std::uint32_t i : moved_q_orig) {
    const std::uint32_t slot = q_slot_[i];
    const Vec3& p = cur_q_pos_[i];
    prep_.q_tree.set_point(slot, p);
    prep_.q_soa.x[slot] = p.x;
    prep_.q_soa.y[slot] = p.y;
    prep_.q_soa.z[slot] = p.z;
  }
}

std::string TrajectoryDriver::journal_job_id() const {
  return "step" + std::to_string(step_index_);
}

RunResult TrajectoryDriver::step(std::span<const Vec3> positions,
                                 const RunOptions& options) {
  assert(positions.size() == mol_.size());
  // Refuse a shape before the state advances; the caches hold walk lists.
  if (options.traversal != TraversalMode::kList)
    throw std::invalid_argument("RunOptions::traversal: a trajectory step walks kList");
  const Driver driver = route(options);
  stats_ = StepStats{};

  // Journal replay: a step the previous (killed) campaign already completed
  // advances the anchor state machine but skips evaluation.
  bool replay = false;
  double replay_energy = 0.0;
  if (journal_) {
    const std::string job = journal_job_id();
    for (const ckpt::JournalRecord& rec : journal_->records()) {
      if (rec.job != job) continue;
      if (rec.state == ckpt::JobState::kDone) {
        std::uint64_t bits = 0;
        if (std::sscanf(rec.detail.c_str(), "e=%" SCNx64, &bits) == 1) {
          std::memcpy(&replay_energy, &bits, sizeof(replay_energy));
          replay = true;
        }
      }
    }
  }

  // Bitwise moved set: exact-equal positions contribute no dirtiness at all.
  std::vector<std::uint32_t> moved;
  std::vector<char> atom_moved(mol_.size(), 0);
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    if (!same_bits(positions[i], cur_pos_[i])) {
      moved.push_back(i);
      atom_moved[i] = 1;
      cur_pos_[i] = positions[i];
    }
  }
  stats_.moved_atoms = moved.size();

  // Quadrature payload rides the supporting atoms.
  std::vector<std::uint32_t> moved_q;
  for (std::uint32_t i = 0; i < cur_q_pos_.size(); ++i) {
    if (atom_moved[q_support_[i]]) {
      cur_q_pos_[i] = cur_pos_[q_support_[i]] + q_offset_[i];
      moved_q.push_back(i);
    }
  }

  const bool do_resurface = topt_.resurface_every > 0 && step_index_ > 0 &&
                            step_index_ % topt_.resurface_every == 0;
  std::vector<char> atom_leaf_changed(prep_.atoms_tree.nodes().size(), 0);
  std::vector<char> q_leaf_changed(prep_.q_tree.nodes().size(), 0);
  if (do_resurface) {
    stats_.resurfaced = true;
    stats_.re_anchored = true;
    stats_.re_anchored_leaves = prep_.atoms_tree.leaves().size() +
                                prep_.q_tree.leaves().size();
    resurface(cur_pos_);
    structures_stale_ = true;
  } else {
    // Per-leaf skin check. Only atoms that moved THIS step can newly breach:
    // any earlier breach already re-anchored its leaf, so unmoved atoms sit
    // within margin by induction.
    std::vector<char> atom_leaf_breached(prep_.atoms_tree.nodes().size(), 0);
    std::vector<char> q_leaf_breached(prep_.q_tree.nodes().size(), 0);
    for (const std::uint32_t i : moved) {
      const std::uint32_t leaf = atom_leaf_of_[atom_slot_[i]];
      atom_leaf_changed[leaf] = 1;
      if (!atom_leaf_breached[leaf] &&
          distance2(cur_pos_[i], anchor_pos_[i]) >
              atom_leaf_margin_[leaf] * atom_leaf_margin_[leaf])
        atom_leaf_breached[leaf] = 1;
    }
    for (const std::uint32_t i : moved_q) {
      const std::uint32_t leaf = q_leaf_of_[q_slot_[i]];
      q_leaf_changed[leaf] = 1;
      if (!q_leaf_breached[leaf] &&
          distance2(cur_q_pos_[i], anchor_q_pos_[i]) >
              q_leaf_margin_[leaf] * q_leaf_margin_[leaf])
        q_leaf_breached[leaf] = 1;
    }
    // Re-insert ONLY the breached leaves' points: their anchors jump to the
    // current positions, everything else keeps its anchor (and therefore its
    // Morton cell and node geometry, bit-for-bit, across the rebuild).
    for (const std::uint32_t leaf_id : prep_.atoms_tree.leaves()) {
      if (!atom_leaf_breached[leaf_id]) continue;
      const OctreeNode& node = prep_.atoms_tree.node(leaf_id);
      for (std::uint32_t slot = node.begin; slot < node.end; ++slot) {
        const std::uint32_t orig = prep_.atoms_tree.original_index(slot);
        anchor_pos_[orig] = cur_pos_[orig];
      }
      ++stats_.re_anchored_leaves;
      structures_stale_ = true;
    }
    for (const std::uint32_t leaf_id : prep_.q_tree.leaves()) {
      if (!q_leaf_breached[leaf_id]) continue;
      const OctreeNode& node = prep_.q_tree.node(leaf_id);
      for (std::uint32_t slot = node.begin; slot < node.end; ++slot) {
        const std::uint32_t orig = prep_.q_tree.original_index(slot);
        anchor_q_pos_[orig] = cur_q_pos_[orig];
      }
      ++stats_.re_anchored_leaves;
      structures_stale_ = true;
    }
    stats_.re_anchored = structures_stale_;
  }

  // kCold: same state machine, zero reuse — rebuild and recompute it all.
  if (options.reuse == ReuseMode::kCold) structures_stale_ = true;

  if (structures_stale_)
    rebuild_structures();  // invalidates every evaluation cache
  else
    patch_payload(moved, moved_q);

  RunResult result;
  if (replay) {
    stats_.resumed_from_journal = true;
    result.energy = replay_energy;
    result.resumed = true;
    // Positions advanced without evaluation: nothing cached matches the new
    // payload, so the next live step recomputes from scratch (bit-safe).
    caches_->invalidate();
    born_valid_ = false;
  } else {
    if (journal_)
      journal_->append({.state = ckpt::JobState::kRunning,
                        .attempt = 1,
                        .job = journal_job_id(),
                        .detail = {}});
    if (driver == Driver::kSerial) {
      const bool fresh = !caches_->born_acc_valid;
      result = evaluate_serial(fresh, atom_leaf_changed, q_leaf_changed);
    } else {
      result = evaluate_engine(options);
    }
    if (journal_) {
      char detail[32];
      std::snprintf(detail, sizeof(detail), "e=%016" PRIx64,
                    energy_bits(result.energy));
      journal_->append({.state = ckpt::JobState::kDone,
                        .attempt = 1,
                        .job = journal_job_id(),
                        .detail = detail});
    }
  }

  result.dirty_leaves = stats_.dirty_leaves;
  result.lists_rebuilt = stats_.lists_rebuilt;
  result.reused_fraction = stats_.reused_fraction;

  obs::emit(obs::EventKind::kDeltaUpdate, stats_.dirty_leaves,
            stats_.moved_atoms);
  obs::emit(obs::EventKind::kPrepReuse,
            stats_.dirty_leaves == 0 ? 1 : 0, stats_.lists_rebuilt);
  obs::add_delta_update(stats_.dirty_leaves, stats_.lists_rebuilt);

  ++step_index_;
  return result;
}

RunResult TrajectoryDriver::evaluate_serial(
    bool fresh, std::span<const char> atom_leaf_changed,
    std::span<const char> q_leaf_changed) {
  RunResult result;
  WallTimer wall;
  ThreadCpuTimer cpu;
  Caches& c = *caches_;

  const auto n_atoms = static_cast<std::uint32_t>(prep_.num_atoms());
  const auto n_qleaves = static_cast<std::uint32_t>(prep_.q_tree.leaves().size());
  const auto n_aleaves =
      static_cast<std::uint32_t>(prep_.atoms_tree.leaves().size());

  const BornSolver born_solver(prep_, params_);
  if (!c.born_lists_valid) {
    c.born_lists = born_solver.build_lists(0, n_qleaves);
    c.born_lists_valid = true;
    stats_.lists_rebuilt += n_qleaves;
  }

  std::uint64_t reused_pairs = 0;
  if (fresh) {
    // Cold recipe: one fresh accumulator, full far then full near — the
    // exact per-slot fold the incremental subset replay reproduces.
    c.born_acc = born_solver.make_accumulator();
    born_solver.accumulate_lists(c.born_lists, c.born_acc);
    c.born_acc_valid = true;
    stats_.born_dirty_leaves = n_aleaves;
  } else {
    // node_s is a function of anchor state only — reused wholesale. atom_s
    // is refolded for target leaves that contain a moved atom or are fed by
    // a q-leaf whose payload moved.
    std::vector<char> dirty(prep_.atoms_tree.nodes().size(), 0);
    for (const std::uint32_t leaf_id : prep_.atoms_tree.leaves())
      if (atom_leaf_changed[leaf_id]) dirty[leaf_id] = 1;
    for (const InteractionLists::Near& e : c.born_lists.near)
      if (q_leaf_changed[e.source_leaf]) dirty[e.target_leaf] = 1;

    std::vector<std::uint32_t> entry_ids;
    for (std::uint32_t idx = 0; idx < c.born_lists.near.size(); ++idx) {
      const InteractionLists::Near& e = c.born_lists.near[idx];
      if (dirty[e.target_leaf]) {
        entry_ids.push_back(idx);
      } else {
        const OctreeNode& an = prep_.atoms_tree.node(e.target_leaf);
        const OctreeNode& qn = prep_.q_tree.node(e.source_leaf);
        reused_pairs += static_cast<std::uint64_t>(an.count()) * qn.count();
      }
    }
    for (const std::uint32_t leaf_id : prep_.atoms_tree.leaves()) {
      if (!dirty[leaf_id]) continue;
      ++stats_.born_dirty_leaves;
      const OctreeNode& node = prep_.atoms_tree.node(leaf_id);
      for (std::uint32_t slot = node.begin; slot < node.end; ++slot)
        c.born_acc.atom_s(slot) = 0.0;
    }
    born_solver.accumulate_near_entries(c.born_lists, entry_ids, c.born_acc);
  }

  std::vector<double> born_new(n_atoms, 0.0);
  born_solver.push_to_atoms(c.born_acc, 0, n_atoms, born_new);

  // E_pol dirtiness: a leaf is "touched" when an atom in it moved or its
  // Born radius bits changed (radius changes radiate from dirty Born leaves
  // but are detected exactly, by bit comparison against the previous step).
  std::vector<char> touched(prep_.atoms_tree.nodes().size(), 0);
  if (!fresh) {
    for (const std::uint32_t leaf_id : prep_.atoms_tree.leaves())
      if (atom_leaf_changed[leaf_id]) touched[leaf_id] = 1;
    for (std::uint32_t slot = 0; slot < n_atoms; ++slot)
      if (!same_bits(born_new[slot], born_sorted_[slot]))
        touched[atom_leaf_of_[slot]] = 1;
  }
  born_sorted_ = std::move(born_new);
  born_valid_ = true;

  const EpolSolver epol_solver(prep_, born_sorted_, params_, constants_);
  if (!c.epol_lists_valid) {
    c.epol_lists = epol_solver.build_lists(0, n_aleaves);
    c.epol_lists_valid = true;
    stats_.lists_rebuilt += n_aleaves;
    c.entry_partial.assign(c.epol_lists.near.size(), 0.0);
    c.partials_valid = false;
  }

  // Far field, node bins and far terms are cheap and depend on every Born
  // radius through min/max — recomputed from scratch each step (identical to
  // what a plain EpolSolver construction does).
  double raw_far = 0.0;
  epol_solver.accumulate_energy_far_range(c.epol_lists, 0,
                                          c.epol_lists.far.size(), raw_far);

  // An entry (target leaf x source leaf) is recomputed when either side is
  // touched, with a fresh-from-zero fold so the partial comes out identical
  // to a full pass over the same entry.
  const bool all_dirty = fresh || !c.partials_valid;
  const auto n_entries = static_cast<std::uint32_t>(c.epol_lists.near.size());
  for (std::uint32_t idx = 0; idx < n_entries; ++idx) {
    const InteractionLists::Near& e = c.epol_lists.near[idx];
    if (!all_dirty && !touched[e.target_leaf] && !touched[e.source_leaf]) {
      const OctreeNode& tn = prep_.atoms_tree.node(e.target_leaf);
      const OctreeNode& sn = prep_.atoms_tree.node(e.source_leaf);
      reused_pairs += static_cast<std::uint64_t>(tn.count()) * sn.count();
      continue;
    }
    double partial = 0.0;
    epol_solver.accumulate_energy_near_range(c.epol_lists, idx, idx + 1,
                                             partial);
    c.entry_partial[idx] = partial;
  }
  if (all_dirty) {
    stats_.epol_touched_leaves = n_aleaves;
  } else {
    for (const std::uint32_t leaf_id : prep_.atoms_tree.leaves())
      stats_.epol_touched_leaves += touched[leaf_id] != 0;
  }
  c.partials_valid = true;

  // Per-entry partials folded in ascending list order. Each near entry's
  // kernel returns its own sum, which the walk's running fold then adds, so
  // this equals a plain Engine run's near sum bit for bit; cold and
  // incremental steps use the same order — their 0-ulp contract.
  double raw_near = 0.0;
  for (const double partial : c.entry_partial) raw_near += partial;

  result.energy = epol_solver.finish_energy_pair(raw_far, raw_near);
  result.born_sorted = born_sorted_;
  result.compute_seconds = cpu.seconds();
  result.wall_seconds = wall.seconds();
  result.replicated_bytes = prep_.replicated_footprint().bytes;

  stats_.dirty_leaves = stats_.born_dirty_leaves + stats_.epol_touched_leaves;
  const std::uint64_t total_pairs =
      c.born_lists.near_point_pairs + c.epol_lists.near_point_pairs;
  stats_.reused_fraction =
      total_pairs == 0
          ? 0.0
          : static_cast<double>(reused_pairs) / static_cast<double>(total_pairs);
  return result;
}

RunResult TrajectoryDriver::evaluate_engine(const RunOptions& options) {
  // Non-serial shapes reuse at PREPARATION level only: the delta-maintained
  // Prepared feeds a normal Engine run (which re-walks the trees and
  // recomputes its partials internally), with the step index salted into
  // the checkpoint job key so within-step snapshots never leak across
  // frames.
  RunOptions opts = options;
  opts.checkpoint.job_salt = step_index_;
  const Engine engine(prep_, params_, constants_);
  RunResult result = engine.run(opts);

  born_sorted_ = result.born_sorted;
  born_valid_ = !born_sorted_.empty();
  // The serial caches were not maintained through this evaluation; the next
  // serial step must start fresh.
  caches_->invalidate();

  stats_.born_dirty_leaves =
      static_cast<std::uint64_t>(prep_.atoms_tree.leaves().size());
  stats_.epol_touched_leaves = stats_.born_dirty_leaves;
  stats_.dirty_leaves = stats_.born_dirty_leaves + stats_.epol_touched_leaves;
  stats_.lists_rebuilt = prep_.q_tree.leaves().size() +
                         prep_.atoms_tree.leaves().size();
  stats_.reused_fraction = 0.0;
  return result;
}

std::vector<Vec3> TrajectoryDriver::last_gradient() const {
  assert(born_valid_);
  const EpolSolver epol_solver(prep_, born_sorted_, params_, constants_);
  const EpolGradientSolver grad(prep_, born_sorted_, epol_solver, constants_);
  return grad.gradient_all();
}

}  // namespace gbpol
