// Static work-division helpers (paper §IV-A, "explicit static load
// balancing"): rank i gets the i-th segment of leaves / atoms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gbpol {

struct Segment {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::uint32_t count() const { return hi - lo; }
};

// Paper's scheme: even split of n items into `parts` segments (sizes differ
// by at most one). Returns segment `index`.
Segment even_segment(std::size_t n, int parts, int index);

// Cost-guided partitioning: contiguous segments of `costs.size()` items,
// chosen greedily so each segment's cumulative cost approaches its
// proportional share of the total. Degenerates to an even item split when
// every cost is zero. Always returns exactly `parts` segments covering
// [0, costs.size()); trailing segments are empty when parts > items or when
// one item carries all the cost.
std::vector<Segment> segments_by_cost(std::span<const double> costs, int parts);

// Cross-rank balancing strategy for the chunked (canonical-reduction)
// distributed path. All three policies yield bit-identical energies because
// the reduction folds fixed, policy-independent chunk partials in ascending
// chunk order regardless of which rank computed each chunk (DESIGN.md
// "Load balancing").
enum class BalancePolicy {
  kStatic,     // even chunk split by index (the paper's static scheme)
  kCostModel,  // initial split weighted by per-leaf cost estimates
               // (mpisim::leaf_interaction_costs)
  kSteal       // cost-model split + work stealing: a drained rank requests
               // chunks from the most-loaded peer (gossiped progress counter)
};

// Data residency for the distributed drivers. The paper replicates the full
// molecule on every rank ("distribute work, not data"), which is the memory
// wall for virus-scale inputs. kOwned instead gives each rank a
// Morton-contiguous octree leaf range (the canonical leaf order the
// interaction lists already use): the rank holds its owned point payload
// plus a halo imported per its interaction lists (core/halo_exchange.hpp),
// so per-rank hot memory scales as N/P + halo. Results are bit-identical
// to kReplicated because both fold the same per-chunk partials in the same
// canonical order (DESIGN.md "Domain decomposition & halo exchange").
enum class DataDistribution {
  kReplicated,  // every rank holds everything (the paper's scheme)
  kOwned        // ranks own leaf ranges and exchange halos
};

// Work-division strategies for the distributed drivers (paper §IV-A). The
// explicit cross-rank dynamic balancing of §VI's future work is
// BalancePolicy (core/balance.hpp).
enum class WorkDivision {
  kNodeNode,  // default: leaf-node segments for both phases (error is
              // independent of the number of processes)
  kAtomBased  // atom-index segments (Gromacs-style; error drifts with P)
};

}  // namespace gbpol
