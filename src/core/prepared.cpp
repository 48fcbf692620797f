#include "core/prepared.hpp"

#include <algorithm>

#include "support/timer.hpp"
#include "support/workers.hpp"

namespace gbpol {
namespace {

void store(PointsSoA& soa, std::size_t slot, const Vec3& p) {
  soa.x[slot] = p.x;
  soa.y[slot] = p.y;
  soa.z[slot] = p.z;
}

}  // namespace

std::vector<double> Prepared::to_original_order(std::span<const double> sorted) const {
  std::vector<double> original(sorted.size());
  const auto perm = atoms_tree.permutation();
  for (std::size_t slot = 0; slot < sorted.size(); ++slot)
    original[perm[slot]] = sorted[slot];
  return original;
}

MemoryFootprint Prepared::replicated_footprint() const {
  MemoryFootprint fp = atoms_tree.footprint();
  const MemoryFootprint qfp = q_tree.footprint();
  fp.add(qfp.bytes);
  fp.add_array<double>(charge.size());
  fp.add_array<double>(intrinsic_radius.size());
  fp.add_array<Vec3>(weighted_normal.size());
  fp.add_array<Vec3>(node_weighted_normal.size());
  fp.add_array<Mat3>(node_moment.size());
  fp.add(atoms_soa.size_bytes());
  fp.add(q_soa.size_bytes());
  fp.add(q_wn_soa.size_bytes());
  return fp;
}

Prepared Prepared::build(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                         std::uint32_t leaf_capacity) {
  return build(mol, quad, leaf_capacity, Aabb{}, Aabb{});
}

Prepared Prepared::build(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                         std::uint32_t leaf_capacity, const Aabb& atoms_domain,
                         const Aabb& q_domain) {
  WallTimer timer;
  Prepared prep;

  const Octree::BuildParams params{
      .leaf_capacity = leaf_capacity, .max_depth = 20, .domain = atoms_domain};
  const Octree::BuildParams q_params{
      .leaf_capacity = leaf_capacity, .max_depth = 20, .domain = q_domain};

  std::vector<Vec3> atom_pos(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) atom_pos[i] = mol.atom(i).pos;
  prep.atoms_tree = Octree::build(atom_pos, params);
  prep.q_tree = Octree::build(quad.points, q_params);

  // Payloads, slot by slot on claimed blocks. Every payload array is
  // reserved on the calling thread first (the SoA stores in this order: they
  // share one arena), then sized on claimed blocks, one array per block, so
  // the zero-fill that first touches their pages runs in parallel too.
  const std::size_t n_atoms = mol.size(), n_q = quad.size();
  const int q_workers = build_workers(n_q);
  prep.hot_arena = std::make_shared<PageArena>();
  prep.atoms_soa = PointsSoA(prep.hot_arena);
  prep.q_soa = PointsSoA(prep.hot_arena);
  prep.q_wn_soa = PointsSoA(prep.hot_arena);
  ArenaVector<double>* const stores[] = {
      &prep.atoms_soa.x, &prep.atoms_soa.y, &prep.atoms_soa.z,
      &prep.q_soa.x,     &prep.q_soa.y,     &prep.q_soa.z,
      &prep.q_wn_soa.x,  &prep.q_wn_soa.y,  &prep.q_wn_soa.z};
  for (std::size_t i = 0; i < 9; ++i) stores[i]->reserve(i < 3 ? n_atoms : n_q);
  prep.charge.reserve(n_atoms);
  prep.intrinsic_radius.reserve(n_atoms);
  prep.weighted_normal.reserve(n_q);
  workers::for_blocks(q_workers, 12, [&](std::size_t i) {
    if (i < 9) stores[i]->resize(i < 3 ? n_atoms : n_q);
    else if (i == 9) prep.charge.resize(n_atoms);
    else if (i == 10) prep.intrinsic_radius.resize(n_atoms);
    else prep.weighted_normal.resize(n_q);
  });

  workers::for_ranges(build_workers(n_atoms), n_atoms, kBuildBlockPoints,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t slot = lo; slot < hi; ++slot) {
                          const auto s = static_cast<std::uint32_t>(slot);
                          const Atom& a = mol.atom(prep.atoms_tree.original_index(s));
                          prep.charge[slot] = a.charge;
                          prep.intrinsic_radius[slot] = a.radius;
                          store(prep.atoms_soa, slot, prep.atoms_tree.point(s));
                        }
                      });

  workers::for_ranges(q_workers, n_q, kBuildBlockPoints,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t slot = lo; slot < hi; ++slot) {
                          const auto s = static_cast<std::uint32_t>(slot);
                          const std::uint32_t orig = prep.q_tree.original_index(s);
                          const Vec3 wn = quad.normals[orig] * quad.weights[orig];
                          prep.weighted_normal[slot] = wn;
                          store(prep.q_soa, slot, prep.q_tree.point(s));
                          store(prep.q_wn_soa, slot, wn);
                        }
                      });

  // Node aggregates. Leaves sum their own points on claimed blocks of
  // leaves; then, because children are stored after their parent, a serial
  // reverse sweep folds children into parents, each parent summing its
  // children in child order. The moment tensor shifts reference point when
  // hoisted: M_parent = sum_child [ M_child + n~_child (x) (c_child - c_parent) ].
  const auto nodes = prep.q_tree.nodes();
  const auto q_leaves = prep.q_tree.leaves();
  prep.node_weighted_normal.assign(nodes.size(), Vec3{});
  prep.node_moment.assign(nodes.size(), Mat3{});
  workers::for_ranges(
      q_workers, q_leaves.size(), kBuildBlockPoints / std::max<std::uint32_t>(1, leaf_capacity),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t l = lo; l < hi; ++l) {
          const OctreeNode& node = nodes[q_leaves[l]];
          Vec3 sum;
          Mat3 moment;
          for (std::uint32_t i = node.begin; i < node.end; ++i) {
            sum += prep.weighted_normal[i];
            moment += outer(prep.weighted_normal[i], prep.q_tree.point(i) - node.centroid);
          }
          prep.node_weighted_normal[q_leaves[l]] = sum;
          prep.node_moment[q_leaves[l]] = moment;
        }
      });
  for (std::size_t id = nodes.size(); id-- > 0;) {
    const OctreeNode& node = nodes[id];
    if (node.is_leaf()) continue;
    Vec3 sum;
    Mat3 moment;
    for (std::uint8_t c = 0; c < node.child_count; ++c) {
      const std::size_t child_id = static_cast<std::size_t>(node.first_child) + c;
      const OctreeNode& child = nodes[child_id];
      sum += prep.node_weighted_normal[child_id];
      moment += prep.node_moment[child_id];
      moment += outer(prep.node_weighted_normal[child_id], child.centroid - node.centroid);
    }
    prep.node_weighted_normal[id] = sum;
    prep.node_moment[id] = moment;
  }

  prep.build_seconds = timer.seconds();
  return prep;
}

}  // namespace gbpol
