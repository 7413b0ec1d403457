// Adaptive hybrid read sweep (BENCH_adaptive.json).
//
// Reproduces the Fig. 9 methodology (8 clients, Zipf-0.99, value-size
// sweep) restricted to the three configurations the adaptive read is
// about, across the three read-bearing mixes:
//
//   * efactory           — hybrid read as shipped (PR 1-7 behavior);
//   * efactory+adaptive  — hybrid read with the fallback tracker and
//                          durability hints on (docs/ADAPTIVE_READ.md);
//   * efactory-no-hr     — the w/o-hr factor-analysis baseline every
//                          hybrid variant is judged against.
//
// The acceptance bar this bench exists to demonstrate (EXPERIMENTS.md
// "reproduction deviations resolved"): on the 50 %-write Zipfian mix at
// 1KB-4KB, where the plain hybrid read used to land 7-9 % BELOW w/o-hr,
// the adaptive read is at or above w/o-hr; on the read-heavy mixes the
// hybrid gain stays positive.
//
// Each table cell is a 5-run seeded average (2 in --smoke). Per-point
// metrics land in metrics_sink() under "adaptive/<mix>/<size>/<variant>/"
// (including the read.adaptive.* counters for the adaptive variant), and
// bench_main() exports the sink to BENCH_adaptive.json.
#include "bench_common.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;
using workload::Mix;

bool g_smoke = false;

constexpr std::size_t kClients = 8;

/// The three configurations, in table order.
struct Variant {
  const char* name;
  SystemKind kind;
  bool adaptive;
};

const Variant kVariants[] = {
    {"efactory", SystemKind::kEFactory, false},
    {"efactory+adaptive", SystemKind::kEFactory, true},
    {"efactory-no-hr", SystemKind::kEFactoryNoHr, false},
};

const std::vector<Mix>& mixes() {
  static const std::vector<Mix> kMixes{Mix::kReadOnly, Mix::kReadIntensive,
                                       Mix::kWriteIntensive};
  return kMixes;
}

std::vector<std::size_t> sizes() {
  if (g_smoke) return {1024, 4096};
  return value_sizes();
}

int runs() { return g_smoke ? 2 : 5; }
std::size_t ops_per_client() { return g_smoke ? 400 : 800; }

std::string mix_table(Mix mix) {
  std::string name = "Adaptive read — ";
  name += workload::to_string(mix);
  return name + " (Mops/s, 8 clients)";
}

void sweep(const Variant& variant, Mix mix) {
  stores::ClientOptions client;
  client.adaptive.enabled = variant.adaptive;
  for (const std::size_t value_len : sizes()) {
    double mops_sum = 0.0;
    double mean_us_sum = 0.0;
    workload::RunResult first;
    for (int r = 0; r < runs(); ++r) {
      workload::RunResult result = throughput_run(
          variant.kind, mix, value_len, kClients, ops_per_client(), 1024,
          0xF9 + static_cast<std::uint64_t>(r) * 97, client);
      mops_sum += result.mops;
      mean_us_sum += result.mean_latency_us();
      if (r == 0) first = std::move(result);
    }
    const double mops = mops_sum / runs();
    const double mean_us = mean_us_sum / runs();

    std::string prefix = "adaptive/";
    prefix += workload::to_string(mix);
    prefix += "/";
    prefix += size_label(value_len);
    prefix += "/";
    prefix += variant.name;
    prefix += "/";
    metrics_sink().merge_from(first.metrics, prefix);
    // Headline gauges the acceptance check (scripts/run_all.sh, CI) and
    // the EXPERIMENTS.md tables read directly.
    metrics_sink().gauge(prefix + "run.mops").set(mops);
    metrics_sink().gauge(prefix + "run.mean_us").set(mean_us);

    Summary::instance().add(mix_table(mix), variant.name,
                            size_label(value_len), mops, 3);
  }
}

void add_points(Points& points) {
  for (const Mix mix : mixes()) {
    for (const Variant& variant : kVariants) {
      std::string name = "adaptive/";
      name += workload::to_string(mix);
      name += "/";
      name += variant.name;
      points.push_back({name, [&variant, mix] { sweep(variant, mix); }});
    }
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  using namespace efac::bench;
  return bench_main(argc, argv, "adaptive", add_points,
                    {switch_flag("--smoke", &g_smoke)});
}
