#include "core/halo_exchange.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "core/interaction_lists.hpp"
#include "mpisim/comm.hpp"
#include "obs/trace.hpp"
#include "support/mat3.hpp"
#include "support/workers.hpp"

namespace gbpol {
namespace {

// One p2p tag for the whole exchange: messages are disambiguated by the
// (src, dst) channel, and each ordered pair carries at most one halo
// message per run (drivers.cpp gathers the owned Born slices on 12001).
constexpr int kHaloTag = 12000;

std::uint64_t hash_words(std::uint64_t h, std::uint64_t w) {
  return ckpt::fnv1a64({h, w});
}

// First leaf ordinal of chunk `c`, clamped so c == n_chunks maps to the end.
std::uint32_t chunk_leaf_lo(const ChunkPlan& plan, std::uint32_t c) {
  return std::min(c * plan.chunk_items, plan.n_items);
}

// Point-slot boundary at leaf ordinal `l` (l == n_leaves maps to the end).
std::uint32_t leaf_point_boundary(const Octree& tree, std::uint32_t l) {
  const auto leaves = tree.leaves();
  if (l >= leaves.size()) return static_cast<std::uint32_t>(tree.num_points());
  return tree.node(leaves[l]).begin;
}

// Subrange of the sorted halo ordinals owned by `owner_leaves`.
std::span<const std::uint32_t> owned_subrange(std::span<const std::uint32_t> halo,
                                              Segment owner_leaves) {
  const auto lo = std::lower_bound(halo.begin(), halo.end(), owner_leaves.lo);
  const auto hi = std::lower_bound(halo.begin(), halo.end(), owner_leaves.hi);
  return halo.subspan(static_cast<std::size_t>(lo - halo.begin()),
                      static_cast<std::size_t>(hi - lo));
}

std::uint32_t points_under(const Octree& tree,
                           std::span<const std::uint32_t> leaf_ords) {
  const auto leaves = tree.leaves();
  std::uint32_t n = 0;
  for (const std::uint32_t l : leaf_ords) n += tree.node(leaves[l]).count();
  return n;
}

// Planning-walk blocks: source leaves per claimed block. A Born row (one
// q-tree leaf against the atoms tree) is cheaper than an E_pol row, so its
// blocks are wider.
constexpr std::uint32_t kBornBlockLeaves = 64;
constexpr std::uint32_t kEpolBlockLeaves = 16;
// Source leaves (Born + E_pol) each planning worker must have, so a small
// molecule walks on the calling thread alone.
constexpr std::size_t kMinPlanningLeavesPerWorker = 512;

// The per-block walks of consecutive source-leaf ranges, joined in leaf
// order into the walk of their union (near_start rebased per block).
LeafWalk concatenate(std::span<LeafWalk> blocks) {
  LeafWalk out;
  std::size_t leaves = 0, targets = 0;
  for (const LeafWalk& b : blocks) {
    leaves += b.interactions.size();
    targets += b.near_targets.size();
  }
  out.interactions.reserve(leaves);
  out.near_start.reserve(leaves + 1);
  out.near_targets.reserve(targets);
  out.near_start.push_back(0);
  for (LeafWalk& b : blocks) {
    const auto base = static_cast<std::uint32_t>(out.near_targets.size());
    out.interactions.insert(out.interactions.end(), b.interactions.begin(), b.interactions.end());
    for (std::size_t i = 1; i < b.near_start.size(); ++i)
      out.near_start.push_back(base + b.near_start[i]);
    out.near_targets.insert(out.near_targets.end(), b.near_targets.begin(), b.near_targets.end());
    b = LeafWalk{};  // transient: release each block once it is copied
  }
  return out;
}

}  // namespace

int OwnershipMap::atom_leaf_owner(std::uint32_t leaf) const {
  for (int r = 0; r < num_ranks(); ++r) {
    const Segment s = ranks[static_cast<std::size_t>(r)].atom_leaves;
    if (leaf >= s.lo && leaf < s.hi) return r;
  }
  return num_ranks() - 1;
}

std::uint64_t OwnershipMap::hash() const {
  std::uint64_t h = ckpt::fnv1a64({0x04EDull, static_cast<std::uint64_t>(ranks.size())});
  for (const RankSpan& s : ranks) {
    h = hash_words(h, (static_cast<std::uint64_t>(s.atom_leaves.lo) << 32) | s.atom_leaves.hi);
    h = hash_words(h, (static_cast<std::uint64_t>(s.q_leaves.lo) << 32) | s.q_leaves.hi);
    h = hash_words(h, (static_cast<std::uint64_t>(s.atoms.lo) << 32) | s.atoms.hi);
    h = hash_words(h, (static_cast<std::uint64_t>(s.qpoints.lo) << 32) | s.qpoints.hi);
  }
  return h;
}

OwnershipMap make_ownership_map(const Prepared& prep, int ranks,
                                const ChunkPlan& born_plan,
                                const ChunkPlan& epol_plan) {
  const int P = std::max(1, ranks);
  OwnershipMap map;
  map.ranks.resize(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    OwnershipMap::RankSpan& s = map.ranks[static_cast<std::size_t>(r)];
    // The kStatic even chunk split, independent of the balance policy: the
    // owned leaves are fixed even when a steal policy moves the WORK.
    const Segment achunks = even_segment(epol_plan.n_chunks, P, r);
    s.atom_leaves = Segment{chunk_leaf_lo(epol_plan, achunks.lo),
                            chunk_leaf_lo(epol_plan, achunks.hi)};
    const Segment qchunks = even_segment(born_plan.n_chunks, P, r);
    s.q_leaves = Segment{chunk_leaf_lo(born_plan, qchunks.lo),
                         chunk_leaf_lo(born_plan, qchunks.hi)};
    s.atoms = Segment{leaf_point_boundary(prep.atoms_tree, s.atom_leaves.lo),
                      leaf_point_boundary(prep.atoms_tree, s.atom_leaves.hi)};
    s.qpoints = Segment{leaf_point_boundary(prep.q_tree, s.q_leaves.lo),
                        leaf_point_boundary(prep.q_tree, s.q_leaves.hi)};
  }
  return map;
}

std::uint64_t HaloPlan::hash() const {
  std::uint64_t h = ckpt::fnv1a64({0x4A10ull, static_cast<std::uint64_t>(ranks.size())});
  for (const RankHalo& rh : ranks) {
    h = hash_words(h, rh.born_halo_leaves.size());
    for (const std::uint32_t l : rh.born_halo_leaves) h = hash_words(h, l);
    h = hash_words(h, rh.atom_halo_leaves.size());
    for (const std::uint32_t l : rh.atom_halo_leaves) h = hash_words(h, l);
    h = hash_words(h, rh.q_halo_leaves.size());
    for (const std::uint32_t l : rh.q_halo_leaves) h = hash_words(h, l);
  }
  return h;
}

PlanningWalks walk_planning(const Prepared& prep, const ApproxParams& params) {
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const ListBuildParams born{.far_multiplier = params.born_far_multiplier(),
                             .exact_at_target_leaf = false};
  const ListBuildParams epol{.far_multiplier = params.epol_far_multiplier(),
                             .exact_at_target_leaf = true};

  // Blocks [0, born_blocks) cover the q-tree source leaves, the rest the
  // atoms-tree ones; one run of workers claims them all.
  const std::uint32_t born_blocks = (n_qleaves + kBornBlockLeaves - 1) / kBornBlockLeaves;
  const std::uint32_t epol_blocks = (n_aleaves + kEpolBlockLeaves - 1) / kEpolBlockLeaves;
  std::vector<LeafWalk> blocks(born_blocks + epol_blocks);
  const auto walk_block = [&](std::size_t b) {
    const bool is_born = b < born_blocks;
    ListBuildParams lp = is_born ? born : epol;
    const std::uint32_t block = is_born ? static_cast<std::uint32_t>(b)
                                        : static_cast<std::uint32_t>(b) - born_blocks;
    const std::uint32_t width = is_born ? kBornBlockLeaves : kEpolBlockLeaves;
    lp.source_leaf_lo = block * width;
    lp.source_leaf_hi = std::min(lp.source_leaf_lo + width, is_born ? n_qleaves : n_aleaves);
    blocks[b] = walk_source_leaves(prep.atoms_tree, is_born ? prep.q_tree : prep.atoms_tree, lp);
  };
  workers::for_blocks(workers::count_for(blocks.size(), std::size_t{n_qleaves} + n_aleaves,
                                         kMinPlanningLeavesPerWorker),
                      blocks.size(), walk_block);

  const std::span<LeafWalk> all(blocks);
  return PlanningWalks{.born = concatenate(all.first(born_blocks)),
                       .epol = concatenate(all.subspan(born_blocks))};
}

HaloPlan build_halo_plan(const Prepared& prep, const PlanningWalks& walks,
                         const OwnershipMap& ownership,
                         const BalanceAssignment& plan_born,
                         const ChunkPlan& born_plan,
                         const BalanceAssignment& plan_epol,
                         const ChunkPlan& epol_plan) {
  const int P = ownership.num_ranks();
  HaloPlan plan;
  plan.ranks.resize(static_cast<std::size_t>(P));

  const std::uint32_t n_aleaves =
      static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const std::uint32_t n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());

  // Marks over leaf ordinals: what one rank's executor chunks will read.
  std::vector<char> born_mark(n_aleaves);   // Born radii needed (Epol near)
  std::vector<char> apoint_mark(n_aleaves); // atom point payload streamed
  std::vector<char> qpoint_mark(n_qleaves); // q point payload streamed

  for (int r = 0; r < P; ++r) {
    std::fill(born_mark.begin(), born_mark.end(), 0);
    std::fill(apoint_mark.begin(), apoint_mark.end(), 0);
    std::fill(qpoint_mark.begin(), qpoint_mark.end(), 0);

    // Born phase: chunk = q-leaf range; sources stream the q payload, NEAR
    // targets stream the atom payload (exact kernels); FAR targets only read
    // node aggregates (tilde-n), which stay node-scale replicated.
    for (const std::uint32_t c : plan_born.order[static_cast<std::size_t>(r)]) {
      const Segment seg = born_plan.chunk_range(c);
      for (std::uint32_t l = seg.lo; l < seg.hi; ++l) {
        qpoint_mark[l] = 1;
        for (const std::uint32_t t : walks.born.near_row(l)) apoint_mark[t] = 1;
      }
    }

    // Epol phase: chunk = atom-leaf range; NEAR entries read coordinates,
    // charges AND Born radii of both sides; FAR entries read binned node
    // aggregates only (served by the leaf-row allgather + local re-fold).
    for (const std::uint32_t c : plan_epol.order[static_cast<std::size_t>(r)]) {
      const Segment seg = epol_plan.chunk_range(c);
      for (std::uint32_t l = seg.lo; l < seg.hi; ++l) {
        apoint_mark[l] = 1;
        const auto row = walks.epol.near_row(l);
        if (!row.empty()) born_mark[l] = 1;
        for (const std::uint32_t t : row) {
          born_mark[t] = 1;
          apoint_mark[t] = 1;
        }
      }
    }

    HaloPlan::RankHalo& out = plan.ranks[static_cast<std::size_t>(r)];
    const OwnershipMap::RankSpan& own = ownership.ranks[static_cast<std::size_t>(r)];
    for (std::uint32_t l = 0; l < n_aleaves; ++l) {
      const bool owned = l >= own.atom_leaves.lo && l < own.atom_leaves.hi;
      if (owned) continue;
      if (born_mark[l]) out.born_halo_leaves.push_back(l);
      if (apoint_mark[l]) out.atom_halo_leaves.push_back(l);
    }
    for (std::uint32_t l = 0; l < n_qleaves; ++l) {
      const bool owned = l >= own.q_leaves.lo && l < own.q_leaves.hi;
      if (!owned && qpoint_mark[l]) out.q_halo_leaves.push_back(l);
    }
    out.born_halo_atoms = points_under(prep.atoms_tree, out.born_halo_leaves);
    out.atom_halo_points = points_under(prep.atoms_tree, out.atom_halo_leaves);
    out.q_halo_points = points_under(prep.q_tree, out.q_halo_leaves);
  }
  return plan;
}

std::vector<std::uint32_t> acc_fold_slice(const Octree& atoms_tree,
                                          Segment owned_atoms) {
  std::vector<std::uint32_t> out;
  const auto nodes = atoms_tree.nodes();
  const std::uint32_t n_nodes = static_cast<std::uint32_t>(nodes.size());
  for (std::uint32_t id = 0; id < n_nodes; ++id) {
    const OctreeNode& node = nodes[id];
    if (node.begin < owned_atoms.hi && node.end > owned_atoms.lo)
      out.push_back(id);
  }
  for (std::uint32_t ai = owned_atoms.lo; ai < owned_atoms.hi; ++ai)
    out.push_back(n_nodes + ai);
  return out;
}

void exchange_born_halo(mpisim::Comm& comm, const Prepared& prep,
                        const OwnershipMap& ownership, const HaloPlan& plan,
                        std::span<const int> dead, std::span<double> born,
                        const std::function<void(std::uint32_t, std::uint32_t)>&
                            reconstruct) {
  const int r = comm.rank();
  const int P = ownership.num_ranks();
  const auto leaves = prep.atoms_tree.leaves();
  const auto is_dead = [&](int rk) {
    return std::binary_search(dead.begin(), dead.end(), rk);
  };
  const Segment my_leaves = ownership.ranks[static_cast<std::size_t>(r)].atom_leaves;

  // Sends first (buffered), ascending peer order: the owned Born values each
  // live peer's plan imports from this rank.
  for (int p = 0; p < P; ++p) {
    if (p == r || is_dead(p)) continue;
    const auto need = owned_subrange(
        plan.ranks[static_cast<std::size_t>(p)].born_halo_leaves, my_leaves);
    if (need.empty()) continue;
    std::vector<double> payload;
    for (const std::uint32_t ord : need) {
      const OctreeNode& leaf = prep.atoms_tree.node(leaves[ord]);
      for (std::uint32_t ai = leaf.begin; ai < leaf.end; ++ai)
        payload.push_back(born[ai]);
    }
    comm.send<double>(payload, p, kHaloTag);
    obs::emit(obs::EventKind::kHaloSend, static_cast<std::uint64_t>(p),
              payload.size() * sizeof(double));
    obs::add_halo_sent(r, payload.size() * sizeof(double));
  }

  // Receives, grouped by owner in ascending rank order (halo ordinals are
  // sorted and ownership is contiguous, so each owner's slice is a run).
  const auto& mine = plan.ranks[static_cast<std::size_t>(r)].born_halo_leaves;
  std::size_t i = 0;
  while (i < mine.size()) {
    const int owner = ownership.atom_leaf_owner(mine[i]);
    std::size_t j = i;
    std::size_t count = 0;
    const Segment owner_leaves =
        ownership.ranks[static_cast<std::size_t>(owner)].atom_leaves;
    while (j < mine.size() && mine[j] < owner_leaves.hi) {
      count += prep.atoms_tree.node(leaves[mine[j]]).count();
      ++j;
    }
    bool filled = false;
    if (owner != r && !is_dead(owner)) {
      std::vector<double> payload(count);
      const mpisim::RecvStatus st = comm.recv_ft<double>(payload, owner, kHaloTag);
      if (st.ok()) {
        std::size_t at = 0;
        for (std::size_t k = i; k < j; ++k) {
          const OctreeNode& leaf = prep.atoms_tree.node(leaves[mine[k]]);
          for (std::uint32_t ai = leaf.begin; ai < leaf.end; ++ai)
            born[ai] = payload[at++];
        }
        obs::emit(obs::EventKind::kHaloRecv, static_cast<std::uint64_t>(owner),
                  count * sizeof(double));
        obs::add_halo_recv(r, count * sizeof(double));
        filled = true;
      }
    }
    if (!filled) {
      // Dead owner (or lost message): rebuild the slices locally from the
      // folded accumulator — canonical values, just without the network.
      for (std::size_t k = i; k < j; ++k) {
        const OctreeNode& leaf = prep.atoms_tree.node(leaves[mine[k]]);
        reconstruct(leaf.begin, leaf.end);
      }
    }
    i = j;
  }
}

std::size_t OwnedFootprint::max_rank_bytes() const {
  std::size_t m = 0;
  for (const std::size_t b : rank_bytes) m = std::max(m, b);
  return m;
}

OwnedFootprint owned_footprint(const Prepared& prep, const OwnershipMap& own,
                               const HaloPlan& plan, int m_bins) {
  OwnedFootprint fp;
  const std::size_t n_anodes = prep.atoms_tree.nodes().size();
  const std::size_t n_atoms = prep.num_atoms();
  const std::size_t bins_bytes =
      n_anodes * static_cast<std::size_t>(m_bins) * sizeof(double);

  // Node-scale structures every rank keeps (O(nodes), not the asymptotic
  // term): both trees' node/leaf arrays and the full bin store the leaf-row
  // allgather + local re-fold reproduces. The q-tree per-node aggregates
  // (weighted normal + moment tensor) are NOT replicated: the kList driver —
  // the only traversal owned mode routes to — reads them exclusively at far
  // sources, and far sources are always leaves, so a rank holds aggregate
  // rows only for its owned q-leaves plus the imported halo q-leaves.
  MemoryFootprint node_fp;
  node_fp.add_array<OctreeNode>(n_anodes);
  node_fp.add_array<std::uint32_t>(prep.atoms_tree.leaves().size());
  node_fp.add_array<OctreeNode>(prep.q_tree.nodes().size());
  node_fp.add_array<std::uint32_t>(prep.q_tree.leaves().size());
  node_fp.add(bins_bytes);
  const std::size_t q_agg_rate = sizeof(Vec3) + sizeof(Mat3);

  // Per-point payload rates, mirroring replicated_footprint element for
  // element: an atom slot carries its Vec3 + permutation entry + charge +
  // intrinsic radius + SoA mirror; a q slot its Vec3 + permutation entry +
  // weighted normal + two SoA mirrors.
  const std::size_t atom_rate = sizeof(Vec3) + sizeof(std::uint32_t) +
                                2 * sizeof(double) + 3 * sizeof(double);
  const std::size_t q_rate = sizeof(Vec3) + sizeof(std::uint32_t) + sizeof(Vec3) +
                             6 * sizeof(double);

  fp.rank_bytes.resize(own.ranks.size(), 0);
  for (std::size_t r = 0; r < own.ranks.size(); ++r) {
    const OwnershipMap::RankSpan& o = own.ranks[r];
    const HaloPlan::RankHalo& h = plan.ranks[r];
    const std::size_t slice_len = acc_fold_slice(prep.atoms_tree, o.atoms).size();
    const std::size_t halo_here = atom_rate * h.atom_halo_points +
                                  q_rate * h.q_halo_points +
                                  q_agg_rate * h.q_halo_leaves.size() +
                                  sizeof(double) * h.born_halo_atoms;
    fp.rank_bytes[r] = node_fp.bytes +
                       atom_rate * (o.atoms.count() + h.atom_halo_points) +
                       q_rate * (o.qpoints.count() + h.q_halo_points) +
                       q_agg_rate * (o.q_leaves.count() + h.q_halo_leaves.size()) +
                       sizeof(double) * (o.atoms.count() + h.born_halo_atoms) +
                       sizeof(double) * slice_len;
    fp.halo_bytes += halo_here;
  }

  // What a replicated rank pays for the same job: the full Prepared, the
  // full accumulator, the full Born array and the same bin store.
  const std::size_t acc_len = n_anodes + n_atoms;
  fp.replicated_rank_bytes = prep.replicated_footprint().bytes +
                             acc_len * sizeof(double) +
                             n_atoms * sizeof(double) + bins_bytes;
  return fp;
}

}  // namespace gbpol
