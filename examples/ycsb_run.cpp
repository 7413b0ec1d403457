// YCSB workload runner: a small CLI over the closed-loop harness.
//
//   $ ./examples/ycsb_run [system] [mix] [value_bytes] [clients] [ops]
//
//   system: efactory | efactory-nohr | saw | imm | erda | forca | rpc |
//           ca | rcommit | inplace
//   mix:    a | b | c | u            (YCSB-A/B/C, update-only)
//
// Example: compare eFactory and Erda on a write-heavy 2 KB workload:
//   $ ./examples/ycsb_run efactory a 2048 8 2000
//   $ ./examples/ycsb_run erda     a 2048 8 2000
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "stores/stats_report.hpp"
#include "stores/world.hpp"
#include "workload/runner.hpp"

using namespace efac;  // NOLINT: example brevity

namespace {

stores::SystemKind parse_system(const std::string& name) {
  const Expected<stores::SystemKind> kind = stores::from_string(name);
  if (!kind) {
    std::fprintf(stderr, "unknown system '%s'; valid:", name.c_str());
    for (const stores::SystemKind k : stores::all_systems()) {
      std::fprintf(stderr, " \"%s\"", std::string{to_string(k)}.c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return *kind;
}

workload::Mix parse_mix(const std::string& name) {
  if (name == "a") return workload::Mix::kWriteIntensive;
  if (name == "b") return workload::Mix::kReadIntensive;
  if (name == "c") return workload::Mix::kReadOnly;
  if (name == "u") return workload::Mix::kUpdateOnly;
  std::fprintf(stderr, "unknown mix '%s' (use a|b|c|u)\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  workload::RunOptions options;
  stores::SystemKind kind = stores::SystemKind::kEFactory;
  options.workload.key_count = 1024;
  options.workload.value_len = 1024;
  options.clients = 8;
  options.ops_per_client = 1000;

  if (argc > 1) kind = parse_system(argv[1]);
  if (argc > 2) options.workload.mix = parse_mix(argv[2]);
  if (argc > 3) options.workload.value_len = std::strtoul(argv[3], nullptr, 10);
  if (argc > 4) options.clients = std::strtoul(argv[4], nullptr, 10);
  if (argc > 5) options.ops_per_client = std::strtoul(argv[5], nullptr, 10);

  std::printf("system=%s mix=%s value=%zuB clients=%zu ops/client=%zu\n",
              std::string{stores::to_string(kind)}.c_str(),
              workload::to_string(options.workload.mix),
              options.workload.value_len, options.clients,
              options.ops_per_client);

  stores::World world{kind, workload::sized_store_config(options)};
  const workload::RunResult result =
      workload::run_workload(world.sim, world.cluster, options);

  std::printf("\nthroughput: %.3f Mops/s over %.2f ms of virtual time\n",
              result.mops, static_cast<double>(result.span_ns) / 1e6);
  std::printf("ops: %llu (%llu puts, %llu gets; %llu get failures, "
              "%llu put failures)\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.puts),
              static_cast<unsigned long long>(result.gets),
              static_cast<unsigned long long>(result.get_failures),
              static_cast<unsigned long long>(result.put_failures));
  auto report = [](const char* label, const Histogram& h) {
    if (h.count() == 0) return;
    std::printf("%s latency (us): mean %.2f  p50 %.2f  p99 %.2f  max %.2f\n",
                label, h.mean() / 1000.0,
                static_cast<double>(h.percentile(0.5)) / 1000.0,
                static_cast<double>(h.percentile(0.99)) / 1000.0,
                static_cast<double>(h.max()) / 1000.0);
  };
  report("PUT", result.put_latency);
  report("GET", result.get_latency);

  std::printf("\n");
  stores::print_cluster_report(std::cout, result.metrics);
  return 0;
}
