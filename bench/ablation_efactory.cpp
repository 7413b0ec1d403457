// Ablations of eFactory's design choices (DESIGN.md §6) — not paper
// figures, but quantifications of the mechanisms the paper credits:
//
//   A. Multiple receiving regions (batched recv) vs single-recv posting —
//      the stated source of eFactory's PUT edge over Erda.
//   B. Background-thread cadence (idle/retry period) vs the durability-
//      flag hit rate of reads — how fast verification must chase writes
//      for the hybrid read to pay off.
//   C. Server worker count vs update-only throughput — where the flush-on-
//      critical-path systems saturate.
#include "bench_common.hpp"

#include "stores/efactory.hpp"
#include "stores/world.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;
using workload::Mix;

workload::RunOptions base_options(Mix mix) {
  workload::RunOptions options;
  options.workload.mix = mix;
  options.workload.key_count = 1024;
  options.workload.value_len = 1024;
  options.clients = 8;
  options.ops_per_client = 800;
  return options;
}

workload::RunResult run_with(const workload::RunOptions& options,
                             stores::StoreConfig config,
                             const std::string& sink_prefix) {
  stores::World world{SystemKind::kEFactory, config};
  workload::RunResult result =
      workload::run_workload(world.sim, world.cluster, options);
  metrics_sink().merge_from(result.metrics, sink_prefix);
  return result;
}

// ---- A: receive-region batching ----------------------------------------

void recv_mode_ablation(bool batched) {
  const workload::RunOptions options = base_options(Mix::kUpdateOnly);
  stores::StoreConfig config = workload::sized_store_config(options);
  // EFactoryStore forces batched mode; to ablate, override the batched
  // cost with the single-recv figure.
  if (!batched) {
    config.cpu.recv_handling_batched_ns = config.cpu.recv_handling_ns;
  }
  const workload::RunResult result = run_with(
      options, config,
      batched ? "ablation/recv/batched/" : "ablation/recv/single/");
  Summary::instance().add(
      "Ablation A — receive regions (update-only, 1KB, 8 clients)",
      batched ? "multiple recv regions (eFactory)" : "single recv posting",
      "Mops", result.mops, 3);
}

// ---- B: background-thread cadence ---------------------------------------

void bg_cadence_ablation(SimDuration period_ns) {
  const workload::RunOptions options = base_options(Mix::kWriteIntensive);
  stores::StoreConfig config = workload::sized_store_config(options);
  config.bg_idle_ns = period_ns;
  config.bg_retry_ns = period_ns;
  const workload::RunResult result = run_with(
      options, config,
      "ablation/bg_cadence/" + std::to_string(period_ns / 1000) + "us/");
  const double pure_pct =
      result.client_stats.gets == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.client_stats.gets_pure_rdma) /
                static_cast<double>(result.client_stats.gets);
  const std::string row = std::to_string(period_ns / 1000) + "us cadence";
  const std::string table =
      "Ablation B — background cadence vs durability-flag hits "
      "(write-intensive, 1KB)";
  Summary::instance().add(table, row, "pure-RDMA reads %", pure_pct, 1);
  Summary::instance().add(table, row, "Mops", result.mops, 3);
}

// ---- C: server worker count ---------------------------------------------

void worker_ablation(SystemKind kind, std::size_t workers) {
  const workload::RunOptions options = base_options(Mix::kUpdateOnly);
  stores::StoreConfig config = workload::sized_store_config(options);
  config.server_workers = workers;
  stores::World world{kind, config};
  const workload::RunResult result =
      workload::run_workload(world.sim, world.cluster, options);
  metrics_sink().merge_from(
      result.metrics, "ablation/workers/" +
                          std::string{stores::to_string(kind)} + "/" +
                          std::to_string(workers) + "/");
  Summary::instance().add(
      "Ablation C — server workers vs update-only throughput (Mops)",
      std::string{stores::to_string(kind)}, std::to_string(workers),
      result.mops, 3);
}

// ---- D: CRC speed vs the hybrid read's value ----------------------------
//
// EXPERIMENTS.md documents that on write-heavy mixes our eFactory loses
// the paper's +13 % hybrid-read gain. This ablation sweeps the CRC rate
// from the measured software figure (1.05 ns/B, per Fig. 2) down to
// hardware-CRC32 territory. Result: total throughput rises with cheaper
// verification, but the hybrid gain stays NEGATIVE (~-7..-9 %) and the
// pure-read rate is pinned at ~60 % — so the misses are *structural*, not
// a verification-capacity problem: under a 50 %-write Zipfian mix, reads
// of a hot key routinely race that key's just-issued RDMA WRITE, a window
// no verifier speed can close. The wasted optimistic reads on those
// misses are what the w/o-hr variant avoids.

void crc_speed_ablation(double per_byte_ns) {
  workload::RunOptions options = base_options(Mix::kWriteIntensive);
  options.workload.value_len = 4096;
  auto run_variant = [&](stores::SystemKind kind) {
    stores::StoreConfig config = workload::sized_store_config(options);
    config.crc.per_byte_ns = per_byte_ns;
    stores::World world{kind, config};
    workload::RunResult r =
        workload::run_workload(world.sim, world.cluster, options);
    metrics_sink().merge_from(
        r.metrics, "ablation/crc_rate/" + TextTable::num(per_byte_ns, 2) +
                       "/" + std::string{stores::to_string(kind)} + "/");
    return r;
  };
  const workload::RunResult with_hr =
      run_variant(stores::SystemKind::kEFactory);
  const workload::RunResult without_hr =
      run_variant(stores::SystemKind::kEFactoryNoHr);
  const double gain_pct =
      100.0 * (with_hr.mops - without_hr.mops) / without_hr.mops;
  const double pure_pct =
      with_hr.client_stats.gets == 0
          ? 0.0
          : 100.0 * static_cast<double>(with_hr.client_stats.gets_pure_rdma) /
                static_cast<double>(with_hr.client_stats.gets);
  const std::string row = TextTable::num(per_byte_ns, 2) + " ns/B";
  const std::string table =
      "Ablation D — CRC rate vs hybrid-read gain (write-intensive, 4KB)";
  Summary::instance().add(table, row, "eFactory Mops", with_hr.mops, 3);
  Summary::instance().add(table, row, "w/o hr Mops", without_hr.mops, 3);
  Summary::instance().add(table, row, "hybrid gain %", gain_pct, 1);
  Summary::instance().add(table, row, "pure reads %", pure_pct, 1);
}

void add_points(Points& points) {
  for (const double rate : {1.05, 0.5, 0.2, 0.05}) {
    points.push_back({"ablation/crc_rate/" + TextTable::num(rate, 2),
                      [rate] { crc_speed_ablation(rate); }});
  }
  for (const bool batched : {true, false}) {
    points.push_back(
        {std::string{"ablation/recv_mode/"} + (batched ? "batched" : "single"),
         [batched] { recv_mode_ablation(batched); }});
  }
  for (const SimDuration period :
       {1ull * timeconst::kMicrosecond, 3ull * timeconst::kMicrosecond,
        10ull * timeconst::kMicrosecond, 50ull * timeconst::kMicrosecond}) {
    points.push_back(
        {"ablation/bg_cadence/" + std::to_string(period / 1000) + "us",
         [period] { bg_cadence_ablation(period); }});
  }
  for (const SystemKind kind :
       {SystemKind::kEFactory, SystemKind::kImm, SystemKind::kForca}) {
    for (const std::size_t workers : {1u, 2u, 4u, 6u, 8u}) {
      std::string name = "ablation/workers/";
      name += stores::to_string(kind);
      name += "/";
      name += std::to_string(workers);
      points.push_back({name, [kind, workers] {
                          worker_ablation(kind, workers);
                        }});
    }
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  return efac::bench::bench_main(argc, argv, "ablation",
                                 efac::bench::add_points);
}
