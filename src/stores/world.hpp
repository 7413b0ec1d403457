// One simulation and everything it drives: the simulator, a cluster (one
// shard or several) and every client handed out.
//
// Teardown rule: the simulation is shut down before anything its frames
// or queued events point into is destroyed. ~World runs sim.shutdown()
// first, while the clients and stores that suspended frames reference are
// alive; then clients, cluster and simulator die, in that order, so
// destructors that touch the simulator (~Checker) stay valid.
#pragma once

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "stores/sharding.hpp"

namespace efac::stores {

class World {
 public:
  /// One shard, which is exactly make_cluster(sim, kind, config).
  World(SystemKind kind, StoreConfig config)
      : World(kind, ClusterConfig{.store = std::move(config),
                                  .shard_fault_plans = {}}) {}
  World(SystemKind kind, ClusterConfig config)
      : cluster(make_sharded_cluster(sim, kind, std::move(config))) {}
  ~World() { sim.shutdown(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Simulator sim;  ///< declared first, so it is destroyed last
  ShardedCluster cluster;

  [[nodiscard]] StoreBase& store(std::size_t s = 0) const {
    return cluster.store(s);
  }
  void start() { cluster.start(); }

  /// A client owned by the world, so it outlives every frame that can
  /// point into it.
  KvClient& make_client(const ClientOptions& options = {}) {
    return *clients_.emplace_back(cluster.make_client(options));
  }

 private:
  std::vector<std::unique_ptr<KvClient>> clients_;
};

}  // namespace efac::stores
