// Owned-mode spatial domain decomposition: ownership maps, halo plans and
// the runtime Born-halo exchange (DESIGN.md "Domain decomposition & halo
// exchange").
//
// The paper replicates the full molecule on every rank ("distribute work,
// not data"); this module is the data-distribution counterpart. Each rank
// OWNS a Morton-contiguous range of octree leaves — the leaves under its
// kStatic even chunk split, so ownership is independent of the balance
// policy and identical on every rank — and imports a HALO: exactly the
// remote data its interaction lists will read.
//
// Two kinds of import, mirroring the near/far split of the lists:
//   * NEAR entries evaluate exact point kernels, so they need the remote
//     Born radii (and point payload) of every non-owned atom leaf they
//     touch. These are the point-level halo, exchanged p2p by
//     exchange_born_halo after the Born phase.
//   * FAR entries evaluate binned node aggregates. Leaf bin rows are
//     allgathered (each rank contributes its owned leaves' rows) and the
//     internal rows re-folded locally (EpolSolver::fold_internal_bins), so
//     the far-field aggregate store ends up bit-identical on every rank —
//     the bin-level halo is the gather itself.
//
// Everything here is derived from (geometry, chunk plans, balance plans)
// only — no Born values — so plans are built host-side before the run, are
// identical across ranks, and hash into the checkpoint job key: a restart
// resumes with provably the same redistribution.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/balance.hpp"
#include "core/interaction_lists.hpp"
#include "core/prepared.hpp"
#include "core/workdiv.hpp"
#include "support/memtrack.hpp"

namespace gbpol {

namespace mpisim {
class Comm;
}

// Per-rank owned spans, all derived from the kStatic even split of the two
// chunk plans (Born chunks run over q-tree leaves, Epol chunks over
// atom-tree leaves). Leaf segments are Morton-contiguous by construction;
// point segments are the unions of the owned leaves' point ranges.
struct OwnershipMap {
  struct RankSpan {
    Segment atom_leaves;  // indices into atoms_tree.leaves()
    Segment q_leaves;     // indices into q_tree.leaves()
    Segment atoms;        // owned sorted-atom slots
    Segment qpoints;      // owned sorted quadrature slots
  };
  std::vector<RankSpan> ranks;

  int num_ranks() const { return static_cast<int>(ranks.size()); }
  // Rank whose atom-leaf segment contains ordinal `leaf` (segments are
  // contiguous ascending and cover [0, n_leaves)).
  int atom_leaf_owner(std::uint32_t leaf) const;
  // Stable content hash (ckpt::fnv1a64 over every span), folded into the
  // owned-mode checkpoint job key.
  std::uint64_t hash() const;
};

OwnershipMap make_ownership_map(const Prepared& prep, int ranks,
                                const ChunkPlan& born_plan,
                                const ChunkPlan& epol_plan);

// The planning traversals of both source trees, under the exact list-build
// parameters of the Born (Fig. 2: q-tree leaves against the atoms tree) and
// E_pol (Fig. 3: atom leaves against the atoms tree) phases. One walk per
// tree serves every planning consumer: chunk costs (chunk_costs over
// LeafWalk::interactions) and the halo plan (the near CSR rows).
//
// Short-lived host workers (support/workers.hpp) claim fixed-size blocks of
// source leaves, every Born block then every E_pol block, and each block is
// a walk_source_leaves call over its leaf range; the blocks' walks are
// concatenated in leaf order. A leaf's row does not depend on the cut, so
// the result equals one full-range walk per tree byte for byte, for any
// worker count. Planning stays host-side: the modeled makespan does not
// charge it.
struct PlanningWalks {
  LeafWalk born;  // rows indexed by q-tree leaf ordinal
  LeafWalk epol;  // rows indexed by atoms-tree leaf ordinal
};

PlanningWalks walk_planning(const Prepared& prep, const ApproxParams& params);

// Per-rank halo: the sorted-unique NON-owned leaf ordinals a rank's
// EXECUTOR chunks (post-steal order, so stolen chunks count toward the
// thief) will read. Built by OR-ing the planning walks' near rows of every
// executor chunk's source leaves — the same near entries the runtime's
// per-chunk walks evaluate — so the sets are neither over- nor
// under-approximations.
struct HaloPlan {
  struct RankHalo {
    // Atom leaves whose Born radii the rank needs (Epol near entries, both
    // target and source side). THE runtime exchange set.
    std::vector<std::uint32_t> born_halo_leaves;
    // Atom leaves whose point payload (coordinates / charges / radii) the
    // rank streams: Epol chunk sources + near partners, Born near targets.
    std::vector<std::uint32_t> atom_halo_leaves;
    // Q-tree leaves whose quadrature payload the rank streams (Born chunk
    // sources it executes but does not own).
    std::vector<std::uint32_t> q_halo_leaves;

    std::uint32_t born_halo_atoms = 0;  // points under born_halo_leaves
    std::uint32_t atom_halo_points = 0;
    std::uint32_t q_halo_points = 0;
  };
  std::vector<RankHalo> ranks;

  std::uint64_t hash() const;
};

HaloPlan build_halo_plan(const Prepared& prep, const PlanningWalks& walks,
                         const OwnershipMap& ownership,
                         const BalanceAssignment& plan_born,
                         const ChunkPlan& born_plan,
                         const BalanceAssignment& plan_epol,
                         const ChunkPlan& epol_plan);

// Flat BornAccumulator indices rank `r` must fold to serve its owned atoms:
// every node slot whose point range intersects the owned atom span (all
// ancestors of owned atoms qualify) plus the owned atom slots. Ascending,
// so a sliced canonical fold visits elements in the same order the full
// fold does — per-element the two are bit-identical.
std::vector<std::uint32_t> acc_fold_slice(const Octree& atoms_tree,
                                          Segment owned_atoms);

// Executes the calling rank's point-level Born halo exchange: first sends
// every live peer the owned Born values that peer's plan imports from this
// rank, then receives this rank's own halo from each live owner (owners
// visited in ascending rank order, leaves packed in ascending ordinal
// order, so the byte layout is deterministic). A halo slice whose owner is
// in `dead` — or whose message cannot be received — is filled by
// `reconstruct(atom_lo, atom_hi)` instead, which must write born[lo, hi)
// with the canonical values. Traffic moves through mpisim::Comm p2p (cost-
// model charged, FaultPlan-replayable); emits kHaloSend/kHaloRecv events
// and the per-rank halo byte metrics. Runs in the p2p window between two
// collectives, which mpisim guarantees is death-free, so live->live
// messages always arrive.
void exchange_born_halo(mpisim::Comm& comm, const Prepared& prep,
                        const OwnershipMap& ownership, const HaloPlan& plan,
                        std::span<const int> dead, std::span<double> born,
                        const std::function<void(std::uint32_t, std::uint32_t)>&
                            reconstruct);

// --- memory accounting ----------------------------------------------------
// Logical per-rank hot bytes under the ownership map + halo plan, in the
// same "count what the structure would have to allocate" philosophy as
// Prepared::replicated_footprint. Node-scale structures (tree nodes, node
// aggregates, the full bin store) stay replicated — they are O(nodes), the
// asymptotic win is in the O(points) payload — and each rank additionally
// holds its owned + halo point payload, its Born slice and its accumulator
// slice.
struct OwnedFootprint {
  std::vector<std::size_t> rank_bytes;  // per-rank hot bytes
  std::size_t halo_bytes = 0;           // total halo-resident bytes, all ranks
  std::size_t replicated_rank_bytes = 0;  // the baseline each rank pays today

  std::size_t max_rank_bytes() const;
};

OwnedFootprint owned_footprint(const Prepared& prep, const OwnershipMap& own,
                               const HaloPlan& plan, int m_bins);

}  // namespace gbpol
