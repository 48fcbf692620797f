// Incremental re-evaluation engine for trajectory workloads.
//
// A trajectory evaluates the SAME molecule at a sequence of slightly
// perturbed geometries (MD frames, minimizer iterations, docking poses). The
// seed pipeline re-ran the full preparation every frame: surface march,
// two octree builds, interaction-list traversals, and every evaluation
// partial from scratch — even though a sub-Angstrom step invalidates almost
// none of that work. TrajectoryDriver amortizes it with the neighbor-list
// skin idea from MD codes, applied at octree-leaf granularity:
//
//  * ANCHOR / PAYLOAD SPLIT. Tree topology and node geometry (centroids,
//    radii, q-node aggregates) are pinned at per-point ANCHOR positions and
//    a fixed Morton quantization domain; the point payload (AoS points +
//    SoA hot arrays) is patched to the CURRENT positions every step. Far
//    terms read only anchor-side state, near kernels read the payload, so
//    node geometry may go stale by at most the skin margin — the same
//    argument that lets MD codes reuse a neighbor list between rebuilds.
//  * PER-LEAF SKIN MARGIN. Leaf l tolerates displacement-from-anchor up to
//    margin_l = skin + skin_per_radius * leaf_anchor_radius. An atom
//    crossing its leaf's margin re-anchors that leaf (anchor := current for
//    its atoms) and triggers a deterministic structural rebuild from the
//    mixed anchors; clean subtrees reproduce bit-identically because their
//    anchors and the Morton domain did not change.
//  * EVALUATION CACHES (serial path). Born per-NODE far sums depend only on
//    anchor state, so the whole node_s segment is reused across sub-skin
//    steps; per-atom near sums are refolded only for DIRTY target leaves
//    (a leaf containing a moved atom, or fed by a quadrature leaf whose
//    payload moved), by replaying exactly that leaf's near-list entries in
//    ascending order — the per-slot fold order of a cold full pass, hence
//    bit-identical results. E_pol near energy is restructured as
//    per-source-leaf partials (fresh fold per segment, summed ascending);
//    a partial is recomputed only when its source or any referenced target
//    leaf holds a moved atom or a bit-changed Born radius. The cheap global
//    pieces (Born push, E_pol far field + node bins + far terms) are
//    recomputed every step.
//  * SURFACE REUSE. The surface is marched once; each quadrature point is
//    attached to its nearest atom with a rigid offset, so only points whose
//    supporting atom moved are patched. resurface_every forces a periodic
//    full re-march for long campaigns.
//
// ReuseMode contract (the differential battery in tests/incremental_test.cpp
// pins this): a kCold step advances the SAME anchor state machine but
// rebuilds every structure and recomputes every cached partial from scratch.
// Every recomputation is a pure function of (anchor state, current payload),
// so kCold and kIncremental agree to 0 ulp on energies and Born radii at
// every step — the cache machinery can never change a bit, only skip work.
// Against a plain Engine::run(serial) over the driver's Prepared, Born radii
// and the energy are bit-identical too: each E_pol near entry's kernel
// returns its own sum, so per-entry partials added in ascending list order
// repeat the walk's running fold.
//
// Distributed scope: a distributed RunOptions shape (replicated or owned
// data) evaluates through Engine::run on the delta-maintained Prepared
// (preparation-level reuse; the per-leaf evaluation caches are serial-only).
// CheckpointPolicy::job_salt carries the step index so within-step snapshots
// of different frames can never satisfy each other's resume. A campaign_dir
// adds a step-level ckpt::Journal: re-running a killed campaign replays done
// steps (state machine only, no evaluation) and resumes live computation at
// the first unfinished step, bit-identically.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/born_octree.hpp"
#include "core/engine.hpp"
#include "core/epol_octree.hpp"
#include "core/prepared.hpp"
#include "ckpt/journal.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {

struct TrajectoryOptions {
  // Base skin margin (Angstrom) every leaf tolerates before re-anchoring.
  double skin = 0.3;
  // Extra margin per unit of leaf anchor radius: bigger (coarser) leaves can
  // be allowed to drift further before their geometry is considered stale.
  double skin_per_radius = 0.0;
  // Full surface re-march cadence in steps; 0 = never (rigid attachment of
  // the step-0 surface throughout).
  std::uint32_t resurface_every = 0;
  // Step-level resumable-campaign journal directory; empty = off. The
  // journal lives at <campaign_dir>/trajectory.journal.
  std::string campaign_dir;
  // Surface marching parameters for the initial (and periodic) march.
  surface::QuadratureParams surface;
};

class TrajectoryDriver {
 public:
  // Marches the surface, anchors every point at its initial position, pins
  // the Morton domains at the initial fitted boxes, and builds the full
  // preparation + evaluation caches for step 0's state.
  TrajectoryDriver(const Molecule& mol, const TrajectoryOptions& topt = {},
                   const ApproxParams& params = {},
                   const GBConstants& constants = {});
  ~TrajectoryDriver();

  TrajectoryDriver(const TrajectoryDriver&) = delete;
  TrajectoryDriver& operator=(const TrajectoryDriver&) = delete;

  // Advances one step: atoms at `positions` (input order, mol.size() long),
  // evaluated under `options`. Throws std::invalid_argument, before the
  // state advances, for a shape route() rejects and for
  // TraversalMode::kRecursive (the caches hold walk lists). Serial shapes
  // use the in-process evaluation caches; every other shape routes through
  // Engine::run on the delta-maintained Prepared with
  // checkpoint.job_salt = step index. Returns the step's RunResult with the
  // dirty_leaves / lists_rebuilt / reused_fraction accounting filled in.
  RunResult step(std::span<const Vec3> positions, const RunOptions& options);
  RunResult step(std::span<const Vec3> positions) {
    return step(positions, serial_options());
  }

  // Number of step() calls so far (== the next step's index).
  std::uint64_t step_index() const { return step_index_; }

  // The delta-maintained preparation: topology/geometry at anchors, payload
  // at the positions of the last step. Borrowable by Engine / solvers.
  const Prepared& prepared() const { return prep_; }

  // Born radii of the last evaluated step, atoms_tree order. Empty until a
  // non-replayed step ran.
  std::span<const double> born_sorted() const { return born_sorted_; }

  // -tau/2-weighted E_pol gradient (input atom order) at the last evaluated
  // step's state, frozen Born radii (see core/forces.hpp).
  std::vector<Vec3> last_gradient() const;

  // Skin margin of an atoms-tree leaf (node id), for tests.
  double atom_leaf_margin(std::uint32_t leaf_node_id) const;

  // Per-step introspection for the test battery.
  struct StepStats {
    bool re_anchored = false;          // structural rebuild ran this step
    bool resurfaced = false;           // full surface re-march ran
    bool resumed_from_journal = false; // step replayed, evaluation skipped
    std::uint64_t moved_atoms = 0;     // bitwise position changes this step
    std::uint64_t re_anchored_leaves = 0;  // atoms + q leaves breached
    std::uint64_t born_dirty_leaves = 0;   // target leaves refolded (Born)
    std::uint64_t epol_touched_leaves = 0; // leaves driving entry recomputes
    std::uint64_t dirty_leaves = 0;        // as reported in RunResult
    std::uint64_t lists_rebuilt = 0;
    double reused_fraction = 0.0;
  };
  const StepStats& last_stats() const { return stats_; }

 private:
  struct Caches;

  void resurface(std::span<const Vec3> positions);
  void rebuild_structures();
  void patch_payload(std::span<const std::uint32_t> moved_orig,
                     std::span<const std::uint32_t> moved_q_orig);
  RunResult evaluate_serial(bool fresh, std::span<const char> atom_leaf_changed,
                            std::span<const char> q_leaf_changed);
  RunResult evaluate_engine(const RunOptions& options);
  std::string journal_job_id() const;

  Molecule mol_;  // charges/radii identity; positions track the trajectory
  TrajectoryOptions topt_;
  ApproxParams params_;
  GBConstants constants_;

  // Pinned Morton quantization domains (initial fitted boxes).
  Aabb atoms_domain_;
  Aabb q_domain_;

  // Trajectory state, input order.
  std::vector<Vec3> cur_pos_;
  std::vector<Vec3> anchor_pos_;

  // Surface state: geometry of the last march plus the rigid attachment of
  // each quadrature point to its nearest atom at march time.
  surface::SurfaceQuadrature quad_;
  std::vector<std::uint32_t> q_support_;  // q index -> supporting atom index
  std::vector<Vec3> q_offset_;            // q pos - support pos at march time
  std::vector<Vec3> cur_q_pos_;
  std::vector<Vec3> anchor_q_pos_;

  // Structures anchored at (anchor_pos_, anchor_q_pos_), payload-patched to
  // (cur_pos_, cur_q_pos_).
  Prepared prep_;
  std::vector<std::uint32_t> atom_slot_;     // input index -> sorted slot
  std::vector<std::uint32_t> q_slot_;        // q index -> sorted slot
  std::vector<std::uint32_t> atom_leaf_of_;  // sorted slot -> leaf node id
  std::vector<std::uint32_t> q_leaf_of_;     // sorted slot -> leaf node id
  std::vector<double> atom_leaf_margin_;     // by atoms-tree node id
  std::vector<double> q_leaf_margin_;        // by q-tree node id
  bool structures_stale_ = true;

  // Serial evaluation caches (see Caches in incremental.cpp).
  std::unique_ptr<Caches> caches_;
  std::vector<double> born_sorted_;  // last evaluated step, atoms_tree order
  bool born_valid_ = false;

  std::uint64_t step_index_ = 0;
  StepStats stats_;

  std::unique_ptr<ckpt::Journal> journal_;
};

}  // namespace gbpol
