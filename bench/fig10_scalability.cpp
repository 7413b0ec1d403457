// Figure 10: throughput vs number of client processes (paper §6.2),
// extended with the sharded-cluster scalability sweep.
//
// Classic family ("fig10/scalability/..."): 32-byte keys, 2048-byte
// values, clients ∈ {1..64}, four mixes against single-server clusters.
// Expected shape: eFactory scales ≈linearly until the server's request
// threads saturate; IMM and SAW flatten when writes dominate.
//
// Shard family ("shard/scalability/..."): eFactory plus the IMM and RPC
// baselines against consistent-hash sharded clusters, shards ∈ {1,2,4,8}
// and clients into the hundreds. Aggregate PUT/GET throughput should
// scale near-linearly with shard count once the single server is
// saturated. Results land in BENCH_shard.json (schema efac.bench.v1).
//
// Flags (besides the common ones bench_main parses):
//   --clients=1,2,4,...  override the swept client counts (both families)
//   --shards=1,4,...     override the swept shard counts
//   --smoke              CI shape: shard family only, eFactory update-only,
//                        shards {1,4} at 128 clients, reduced ops
#include "bench_common.hpp"

#include <iostream>

namespace efac::bench {
namespace {

using stores::SystemKind;
using workload::Mix;

constexpr std::size_t kValueLen = 2048;

struct SweepConfig {
  std::vector<std::size_t> clients{1, 2, 4, 8, 16, 32, 64};
  std::vector<std::size_t> shard_clients{16, 64, 128, 256};
  std::vector<std::size_t> shards{1, 2, 4, 8};
  bool smoke = false;
  bool clients_overridden = false;
};

SweepConfig& sweep() {
  static SweepConfig config;
  return config;
}

std::string mix_table(Mix mix) {
  std::string name = "Fig.10 ";
  name += workload::to_string(mix);
  return name + " — throughput (Mops/s) vs clients, 2KB values";
}

std::string shard_table(Mix mix) {
  std::string name = "Shard scaling ";
  name += workload::to_string(mix);
  return name + " — aggregate Mops/s vs clients, 2KB values";
}

void scalability(SystemKind kind, Mix mix, std::size_t clients) {
  const workload::RunResult result =
      throughput_point(kind, mix, kValueLen, clients);
  Summary::instance().add(mix_table(mix), std::string{stores::to_string(kind)},
                          std::to_string(clients), result.mops, 3);
}

void shard_scalability(SystemKind kind, Mix mix, std::size_t shards,
                       std::size_t clients) {
  const std::size_t ops_per_client = sweep().smoke ? 250 : 400;
  const int runs = sweep().smoke ? 2 : 3;
  const workload::RunResult result = sharded_throughput_point(
      kind, mix, kValueLen, clients, shards, ops_per_client,
      /*key_count=*/2048, runs);
  std::string row{stores::to_string(kind)};
  row += " ×";
  row += std::to_string(shards);
  Summary::instance().add(shard_table(mix), row, std::to_string(clients),
                          result.mops, 3);
}

void add_points(Points& points) {
  SweepConfig& config = sweep();
  if (config.smoke && !config.clients_overridden) {
    // CI shape: one client count past the acceptance point (≥ 64 clients
    // — at 128 every shard of a 4-shard cluster is past its saturation
    // knee), shards 1 vs 4 for the scaling ratio.
    config.shard_clients = {128};
    config.shards = {1, 4};
  }
  if (!config.smoke) {
    for (const Mix mix : workload::all_mixes()) {
      for (const SystemKind kind : stores::throughput_systems()) {
        for (const std::size_t clients : config.clients) {
          std::string name = "fig10/scalability/";
          name += workload::to_string(mix);
          name += "/";
          name += stores::to_string(kind);
          name += "/clients:";
          name += std::to_string(clients);
          points.push_back({name, [kind, mix, clients] {
                              scalability(kind, mix, clients);
                            }});
        }
      }
    }
  }
  // The sharded sweep: eFactory plus the RPC and IMM baselines.
  const std::vector<SystemKind> shard_systems =
      config.smoke
          ? std::vector<SystemKind>{SystemKind::kEFactory}
          : std::vector<SystemKind>{SystemKind::kEFactory, SystemKind::kImm,
                                    SystemKind::kRpc};
  const std::vector<Mix> shard_mixes =
      config.smoke ? std::vector<Mix>{Mix::kUpdateOnly}
                   : std::vector<Mix>{Mix::kUpdateOnly, Mix::kWriteIntensive};
  for (const Mix mix : shard_mixes) {
    for (const SystemKind kind : shard_systems) {
      for (const std::size_t shards : config.shards) {
        for (const std::size_t clients : config.shard_clients) {
          std::string name = "shard/scalability/";
          name += workload::to_string(mix);
          name += "/";
          name += stores::to_string(kind);
          name += "/shards:";
          name += std::to_string(shards);
          name += "/clients:";
          name += std::to_string(clients);
          points.push_back({name, [kind, mix, shards, clients] {
                              shard_scalability(kind, mix, shards, clients);
                            }});
        }
      }
    }
  }
}

/// Parse a --clients= / --shards= value into `out`.
bool parse_counts(std::string_view flag, std::string_view value,
                  std::vector<std::size_t>* out) {
  if (parse_count_list(value, out)) return true;
  std::cerr << flag << " needs a comma-separated list of positive counts"
            << std::endl;
  return false;
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  using namespace efac::bench;
  SweepConfig& config = sweep();
  const auto clients = [&config](std::string_view value) {
    if (!parse_counts("--clients=", value, &config.clients)) return false;
    config.shard_clients = config.clients;
    config.clients_overridden = true;
    return true;
  };
  const auto shards = [&config](std::string_view value) {
    return parse_counts("--shards=", value, &config.shards);
  };
  return bench_main(argc, argv, "fig10", add_points,
                    {switch_flag("--smoke", &config.smoke),
                     {"--clients=", clients},
                     {"--shards=", shards}});
}
