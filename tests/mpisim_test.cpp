// In-process message-passing runtime: collectives, p2p, placement, the
// communication-cost model, and makespan accounting.
#include "mpisim/runtime.hpp"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "mpisim/costmodel.hpp"

namespace gbpol::mpisim {
namespace {

TEST(RankMapTest, BlockPlacement) {
  const ClusterModel cluster = ClusterModel::lonestar4();  // 2x6 per node
  const RankMap map(cluster, 24, 1);
  EXPECT_EQ(map.placement(0).node, 0);
  EXPECT_EQ(map.placement(0).socket, 0);
  EXPECT_EQ(map.placement(6).socket, 1);   // second socket of node 0
  EXPECT_EQ(map.placement(11).node, 0);
  EXPECT_EQ(map.placement(12).node, 1);
  EXPECT_EQ(map.link(0, 1), LinkClass::kIntraSocket);
  EXPECT_EQ(map.link(0, 6), LinkClass::kInterSocket);
  EXPECT_EQ(map.link(0, 12), LinkClass::kInterNode);
  EXPECT_EQ(map.worst_link(), LinkClass::kInterNode);
}

TEST(RankMapTest, HybridPlacementUsesThreadBlocks) {
  const ClusterModel cluster = ClusterModel::lonestar4();
  const RankMap map(cluster, 4, 6);  // 2 ranks per node, one per socket
  EXPECT_EQ(map.placement(0).socket, 0);
  EXPECT_EQ(map.placement(1).socket, 1);
  EXPECT_EQ(map.placement(1).node, 0);
  EXPECT_EQ(map.placement(2).node, 1);
  EXPECT_EQ(map.link(0, 1), LinkClass::kInterSocket);
  EXPECT_EQ(map.link(0, 2), LinkClass::kInterNode);
}

TEST(RankMapTest, SingleRankIsIntraSocket) {
  const RankMap map(ClusterModel::lonestar4(), 1, 1);
  EXPECT_EQ(map.worst_link(), LinkClass::kIntraSocket);
}

TEST(CostModelTest, CostsScaleWithMessageAndRanks) {
  const ClusterModel cluster = ClusterModel::lonestar4();
  const RankMap map12(cluster, 12, 1);
  const RankMap map144(cluster, 144, 1);
  const CostModel small(cluster, map12);
  const CostModel large(cluster, map144);
  EXPECT_GT(small.allreduce(1 << 20), small.allreduce(1 << 10));
  EXPECT_GT(large.barrier(), small.barrier());
  EXPECT_GT(small.p2p(0, 11, 1000), 0.0);
  // Inter-node p2p costs more than intra-socket for the same bytes.
  EXPECT_GT(small.p2p(0, 11, 100000) /* crosses sockets */,
            small.p2p(0, 1, 100000));
}

TEST(CostModelTest, SingleRankCollectivesAreFree) {
  const ClusterModel cluster = ClusterModel::lonestar4();
  const RankMap map(cluster, 1, 1);
  const CostModel cost(cluster, map);
  EXPECT_EQ(cost.barrier(), 0.0);
  EXPECT_EQ(cost.allreduce(1 << 20), 0.0);
  EXPECT_EQ(cost.allgatherv(1 << 20), 0.0);
}

TEST(CostModelTest, PureMpiCostsMoreThanHybridLayout) {
  // 12 single-thread ranks span two sockets; 2 ranks x 6 threads also span
  // two sockets but with fewer participants -> cheaper collectives. Across
  // nodes the gap grows with rank count (the paper's §IV-B argument).
  const ClusterModel cluster = ClusterModel::lonestar4();
  const CostModel mpi(cluster, RankMap(cluster, 144, 1));
  const CostModel hybrid(cluster, RankMap(cluster, 24, 6));
  EXPECT_GT(mpi.barrier(), hybrid.barrier());
  EXPECT_GT(mpi.allreduce(1 << 20), hybrid.allreduce(1 << 20));
}

TEST(RuntimeTest, RanksSeeCorrectIdsAndSize) {
  Runtime::Config config;
  config.ranks = 7;
  std::vector<std::atomic<int>> seen(7);
  const auto report = Runtime::run(config, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 7);
    seen[static_cast<std::size_t>(comm.rank())].fetch_add(1);
  });
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
  EXPECT_EQ(report.ranks.size(), 7u);
}

TEST(RuntimeTest, AllreduceSumsAcrossRanks) {
  Runtime::Config config;
  config.ranks = 5;
  std::vector<std::vector<double>> results(5);
  Runtime::run(config, [&](Comm& comm) {
    std::vector<double> data{static_cast<double>(comm.rank()), 1.0};
    comm.allreduce_sum(data);
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), 2u);
    EXPECT_DOUBLE_EQ(r[0], 0 + 1 + 2 + 3 + 4);
    EXPECT_DOUBLE_EQ(r[1], 5.0);
  }
}

TEST(RuntimeTest, AllreduceIsDeterministicAndRankUniform) {
  Runtime::Config config;
  config.ranks = 6;
  auto run_once = [&] {
    std::vector<std::vector<double>> results(6);
    Runtime::run(config, [&](Comm& comm) {
      // Rank-dependent irrational contributions: any ordering difference
      // would change the FP sum.
      std::vector<double> data(64);
      for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = 1.0 / (1.0 + comm.rank() + static_cast<double>(i) * 0.1);
      comm.allreduce_sum(data);
      results[static_cast<std::size_t>(comm.rank())] = std::move(data);
    });
    return results;
  };
  const auto first = run_once();
  const auto second = run_once();
  for (int r = 1; r < 6; ++r) ASSERT_EQ(first[static_cast<std::size_t>(r)], first[0]);
  ASSERT_EQ(first, second);
}

TEST(RuntimeTest, AllreduceMinMax) {
  Runtime::Config config;
  config.ranks = 4;
  std::vector<std::pair<double, double>> results(4);
  Runtime::run(config, [&](Comm& comm) {
    double lo[1] = {10.0 - comm.rank()};
    double hi[1] = {static_cast<double>(comm.rank() * comm.rank())};
    comm.allreduce_min(lo);
    comm.allreduce_max(hi);
    results[static_cast<std::size_t>(comm.rank())] = {lo[0], hi[0]};
  });
  for (const auto& [lo, hi] : results) {
    EXPECT_DOUBLE_EQ(lo, 7.0);  // min over {10, 9, 8, 7}
    EXPECT_DOUBLE_EQ(hi, 9.0);  // max over {0, 1, 4, 9}
  }
}

TEST(RuntimeTest, ReduceOnlyRootHasTotal) {
  Runtime::Config config;
  config.ranks = 4;
  std::vector<double> at_rank(4, 0.0);
  Runtime::run(config, [&](Comm& comm) {
    double v[1] = {1.0};
    comm.reduce_sum(v, 2);
    at_rank[static_cast<std::size_t>(comm.rank())] = v[0];
  });
  EXPECT_DOUBLE_EQ(at_rank[2], 4.0);
  EXPECT_DOUBLE_EQ(at_rank[0], 1.0);  // non-roots keep their local value
}

TEST(RuntimeTest, BcastDistributesRootData) {
  Runtime::Config config;
  config.ranks = 4;
  std::vector<std::vector<int>> results(4);
  Runtime::run(config, [&](Comm& comm) {
    std::vector<int> data(3, comm.rank() == 1 ? 77 : 0);
    comm.bcast<int>(data, 1);
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (const auto& r : results) EXPECT_EQ(r, (std::vector<int>{77, 77, 77}));
}

TEST(RuntimeTest, AllgathervAssemblesSegments) {
  Runtime::Config config;
  config.ranks = 3;
  const std::vector<int> counts{2, 3, 1};
  const std::vector<int> displs{0, 2, 5};
  std::vector<std::vector<double>> results(3);
  Runtime::run(config, [&](Comm& comm) {
    const int r = comm.rank();
    std::vector<double> recv(6, -1.0);
    // Fill own slice in place, as the drivers do.
    for (int k = 0; k < counts[static_cast<std::size_t>(r)]; ++k)
      recv[static_cast<std::size_t>(displs[static_cast<std::size_t>(r)] + k)] = r * 10.0 + k;
    comm.allgatherv<double>(
        {recv.data() + displs[static_cast<std::size_t>(r)],
         static_cast<std::size_t>(counts[static_cast<std::size_t>(r)])},
        recv, counts, displs);
    results[static_cast<std::size_t>(r)] = recv;
  });
  const std::vector<double> expected{0, 1, 10, 11, 12, 20};
  for (const auto& r : results) EXPECT_EQ(r, expected);
}

TEST(RuntimeTest, SendRecvPointToPoint) {
  Runtime::Config config;
  config.ranks = 2;
  double received = 0.0;
  Runtime::run(config, [&](Comm& comm) {
    if (comm.rank() == 0) {
      const double payload[2] = {3.5, -1.0};
      comm.send<double>(payload, 1, 42);
    } else {
      double buf[2] = {0, 0};
      comm.recv<double>(buf, 0, 42);
      received = buf[0] + buf[1];
    }
  });
  EXPECT_DOUBLE_EQ(received, 2.5);
}

TEST(RuntimeTest, RecvMatchesOnTag) {
  Runtime::Config config;
  config.ranks = 2;
  std::vector<double> received;
  Runtime::run(config, [&](Comm& comm) {
    if (comm.rank() == 0) {
      const double first[1] = {1.0};
      const double second[1] = {2.0};
      comm.send<double>(first, 1, 7);
      comm.send<double>(second, 1, 8);
    } else {
      double buf[1];
      comm.recv<double>(buf, 0, 8);  // out of order: tag 8 first
      received.push_back(buf[0]);
      comm.recv<double>(buf, 0, 7);
      received.push_back(buf[0]);
    }
  });
  EXPECT_EQ(received, (std::vector<double>{2.0, 1.0}));
}

TEST(RuntimeTest, AccountingPopulatesReport) {
  Runtime::Config config;
  config.ranks = 3;
  const auto report = Runtime::run(config, [&](Comm& comm) {
    {
      Comm::ComputeRegion region(comm);
      volatile double sink = 0.0;
      for (int i = 0; i < 500000; ++i) sink = sink + i * 0.5;
    }
    std::vector<double> data(1024, 1.0);
    comm.allreduce_sum(data);
  });
  EXPECT_GT(report.max_compute_seconds(), 0.0);
  EXPECT_GT(report.max_comm_seconds(), 0.0);
  EXPECT_GT(report.modeled_seconds(), report.max_comm_seconds());
  EXPECT_GT(report.total_bytes_sent(), 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(RuntimeTest, BarrierSynchronizesPhases) {
  Runtime::Config config;
  config.ranks = 4;
  std::atomic<int> phase1{0};
  std::atomic<bool> violation{false};
  Runtime::run(config, [&](Comm& comm) {
    phase1.fetch_add(1);
    comm.barrier();
    if (phase1.load() != 4) violation.store(true);
  });
  EXPECT_FALSE(violation.load());
}

}  // namespace
}  // namespace gbpol::mpisim
