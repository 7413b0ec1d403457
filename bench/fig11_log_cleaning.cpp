// Figure 11: performance impact of log cleaning on client requests
// (paper §6.3).
//
// eFactory, 32-byte keys / 2048-byte values, 8 clients, four mixes.
// "with cleaning": the pool is sized so rounds trigger repeatedly during
// the measured phase; "without": an ample pool never cleans. The paper
// reports 1 %–21 % average-latency overhead, worst for read-only (the
// hybrid read is disabled while cleaning runs).
#include "bench_common.hpp"

#include "stores/efactory.hpp"
#include "stores/world.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;
using workload::Mix;

constexpr std::size_t kClients = 8;
constexpr std::size_t kValueLen = 2048;

struct CleaningPoint {
  double mean_us = 0.0;
  std::uint64_t cleanings = 0;
};

CleaningPoint run_point(Mix mix, bool with_cleaning) {
  workload::RunOptions options;
  options.workload.mix = mix;
  options.workload.key_count = 1024;
  options.workload.key_len = 32;
  options.workload.value_len = kValueLen;
  options.clients = kClients;
  options.ops_per_client = 1500;

  // Ample pool for both variants; the "with cleaning" variant keeps
  // back-to-back forced rounds running across the measured phase (what the
  // paper measures: request latency WHILE cleaning is in progress).
  stores::StoreConfig config = workload::sized_store_config(options);
  stores::World world{SystemKind::kEFactory, config};
  auto& store = dynamic_cast<stores::EFactoryStore&>(world.store());

  if (with_cleaning) {
    world.sim.spawn([](sim::Simulator& s,
                       stores::EFactoryStore& st) -> sim::Task<void> {
      for (;;) {
        st.force_log_cleaning();  // no-op while a round is active
        co_await sim::delay(s, 50 * timeconst::kMicrosecond);
      }
    }(world.sim, store));
  }

  const workload::RunResult result =
      workload::run_workload(world.sim, world.cluster, options);
  EFAC_CHECK_MSG(result.put_failures == 0 && result.get_failures == 0,
                 "fig11 run had failing ops: puts=" << result.put_failures
                                                    << " gets="
                                                    << result.get_failures);
  CleaningPoint point;
  point.mean_us = result.mean_latency_us();
  point.cleanings = store.server_stats().cleanings;
  std::string prefix = "fig11/";
  prefix += workload::to_string(mix);
  prefix += with_cleaning ? "/cleaning/" : "/baseline/";
  metrics_sink().merge_from(result.metrics, prefix);
  return point;
}

void cleaning_bench(Mix mix) {
  const CleaningPoint without = run_point(mix, false);
  const CleaningPoint with = run_point(mix, true);
  const double overhead_pct =
      100.0 * (with.mean_us - without.mean_us) / without.mean_us;

  const std::string table =
      "Fig.11 — avg op latency (us) with/without log cleaning";
  const std::string row{workload::to_string(mix)};
  Summary::instance().add(table, row, "w/o cleaning", without.mean_us);
  Summary::instance().add(table, row, "w/ cleaning", with.mean_us);
  Summary::instance().add(table, row, "overhead %", overhead_pct, 1);
  Summary::instance().add(table, row, "rounds",
                          static_cast<double>(with.cleanings), 0);
}

void add_points(Points& points) {
  for (const workload::Mix mix : workload::all_mixes()) {
    std::string name = "fig11/log_cleaning/";
    name += workload::to_string(mix);
    points.push_back({name, [mix] { cleaning_bench(mix); }});
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  return efac::bench::bench_main(argc, argv, "fig11", efac::bench::add_points);
}
