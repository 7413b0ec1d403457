// Engine microbenchmarks: *wall-clock* speed of the simulation engine
// itself, unlike the figure benches which report virtual-time results.
//
// Three groups, exported to BENCH_engine.json (efac.bench.v1):
//   engine/scheduler/* — events/sec for schedule/dispatch mixes
//     (coroutine resumptions and small-capture callbacks, near-future
//     deltas plus a far-timer fraction that exercises the heap fallback);
//   engine/crc/*       — CRC32 GB/s per size class, dispatched kernel vs
//     the portable software kernel;
//   engine/fig9_style  — wall-clock of an end-to-end fig9-style eFactory
//     run, the number that bounds every figure reproduction.
//
// `--smoke` shrinks every workload for CI: same coverage, minimal runtime.
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "checksum/crc32.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/world.hpp"

namespace efac::bench {
namespace {

bool g_smoke = false;

double wall_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Publish one scheduler measurement: throughput gauge plus the queue-path
/// counters that make regressions diagnosable.
void report_scheduler(benchmark::State& state, const std::string& name,
                      const sim::Simulator& sim, double secs) {
  const double events_per_sec =
      static_cast<double>(sim.events_processed()) / secs;
  state.SetIterationTime(secs);
  state.counters["events_per_sec"] = events_per_sec;
  Summary::instance().add("Engine — scheduler (wall-clock)", name,
                          "Mevents/s", events_per_sec / 1e6, 2);
  metrics::MetricsRegistry& sink = metrics_sink();
  const std::string prefix = "engine/scheduler/" + name + "/";
  sink.gauge(prefix + "events_per_sec").set(events_per_sec);
  sink.counter(prefix + "sim.events.fast_path") += sim.fast_path_dispatches();
  sink.counter(prefix + "sim.events.heap_fallback") +=
      sim.heap_fallback_dispatches();
}

// Deterministic per-actor delay pattern: mostly near-future (wheel-able)
// deltas, with one far timer (100 us, beyond the wheel horizon) every
// kFarEvery iterations so the heap fallback stays on the measured path.
constexpr SimDuration kDelays[] = {0, 200, 900, 2100, 5300};
constexpr std::size_t kFarEvery = 48;

sim::Task<void> churn_actor(sim::Simulator& sim, std::size_t id,
                            std::size_t iters) {
  for (std::size_t i = 0; i < iters; ++i) {
    if ((i + id) % kFarEvery == kFarEvery - 1) {
      co_await sim::delay(sim, 100 * timeconst::kMicrosecond);
    } else {
      co_await sim::delay(sim, kDelays[(i + id) % 5]);
    }
  }
}

void coroutine_churn(benchmark::State& state) {
  const std::size_t actors = 64;
  const std::size_t iters = g_smoke ? 2000 : 40000;
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t a = 0; a < actors; ++a) {
      sim.spawn(churn_actor(sim, a, iters));
    }
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    report_scheduler(state, "coroutine_churn", sim, wall_seconds(start));
  }
}

void callback_churn(benchmark::State& state) {
  const std::size_t chains = 64;
  const std::size_t iters = g_smoke ? 2000 : 40000;
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sink = 0;
    // Self-perpetuating callback chains with a 40-byte capture each — the
    // size the RPC delivery path schedules, stored inline in the event.
    struct Chain {
      sim::Simulator* sim;
      std::uint64_t* sink;
      std::size_t left;
      SimDuration d;
      void operator()() {
        *sink += left;
        if (left-- > 0) {
          sim->call_after(d, *this);
        }
      }
    };
    for (std::size_t c = 0; c < chains; ++c) {
      sim.call_after(static_cast<SimDuration>(c % 7),
                     Chain{&sim, &sink, iters, 150 + 37 * (c % 11)});
    }
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    const double secs = wall_seconds(start);
    benchmark::DoNotOptimize(sink);
    report_scheduler(state, "callback_churn", sim, secs);
  }
}

void crc_throughput(benchmark::State& state, std::size_t size) {
  Bytes buf(size);
  Rng rng{0xC4C};
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  const std::size_t total_bytes = g_smoke ? (1u << 24) : (1u << 28);
  const std::size_t reps = total_bytes / size;

  const auto measure = [&](auto&& kernel) {
    std::uint32_t acc = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      acc = kernel(BytesView{buf.data(), buf.size()}, acc);
    }
    benchmark::DoNotOptimize(acc);
    const double secs = wall_seconds(start);
    return static_cast<double>(reps * size) / secs / 1e9;
  };

  for (auto _ : state) {
    const checksum::CrcCounters before = checksum::crc_counters();
    const auto start = std::chrono::steady_clock::now();
    const double dispatched_gbps =
        measure([](BytesView v, std::uint32_t s) {
          return checksum::crc32(v, s);
        });
    state.SetIterationTime(wall_seconds(start));
    const double sw_gbps = measure([](BytesView v, std::uint32_t s) {
      return checksum::crc32_software(v, s);
    });
    const checksum::CrcCounters after = checksum::crc_counters();

    state.counters["GBps"] = dispatched_gbps;
    state.counters["GBps_sw"] = sw_gbps;
    const std::string label = size_label(size);
    Summary::instance().add("Engine — CRC32 (GB/s)", label, "dispatched",
                            dispatched_gbps);
    Summary::instance().add("Engine — CRC32 (GB/s)", label, "software",
                            sw_gbps);
    metrics::MetricsRegistry& sink = metrics_sink();
    const std::string prefix = "engine/crc/" + label + "/";
    sink.gauge(prefix + "gbps").set(dispatched_gbps);
    sink.gauge(prefix + "gbps_sw").set(sw_gbps);
    sink.counter(prefix + "crc.hw_bytes") += after.hw_bytes - before.hw_bytes;
    sink.counter(prefix + "crc.sw_bytes") += after.sw_bytes - before.sw_bytes;
  }
}

void fig9_style(benchmark::State& state) {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kUpdateOnly;
  options.workload.key_count = 256;
  options.workload.key_len = 32;
  options.workload.value_len = 1024;
  options.workload.seed = 0xE27;
  options.clients = 8;
  options.ops_per_client = g_smoke ? 50 : 400;

  for (auto _ : state) {
    stores::StoreConfig config = workload::sized_store_config(options);
    maybe_enable_trace(config);
    stores::World world{stores::SystemKind::kEFactory, config};
    const auto start = std::chrono::steady_clock::now();
    const workload::RunResult result =
        workload::run_workload(world.sim, world.cluster, options);
    maybe_adopt_trace(world.store(), "engine/fig9_style/");
    const double secs = wall_seconds(start);
    const double events_per_sec =
        static_cast<double>(world.sim.events_processed()) / secs;

    state.SetIterationTime(secs);
    state.counters["wall_ms"] = secs * 1e3;
    state.counters["events_per_sec"] = events_per_sec;
    state.counters["sim_Mops"] = result.mops;
    Summary::instance().add("Engine — fig9-style end-to-end", "eFactory",
                            "wall_ms", secs * 1e3);
    Summary::instance().add("Engine — fig9-style end-to-end", "eFactory",
                            "Mevents/s", events_per_sec / 1e6);
    metrics::MetricsRegistry& sink = metrics_sink();
    sink.gauge("engine/fig9_style/wall_ms").set(secs * 1e3);
    sink.gauge("engine/fig9_style/events_per_sec").set(events_per_sec);
    // Folds in the run's sim.events.* and crc.* counters.
    sink.merge_from(result.metrics, "engine/fig9_style/");
  }
}

const int registrar = [] {
  benchmark::RegisterBenchmark("engine/scheduler/coroutine_churn",
                               coroutine_churn)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("engine/scheduler/callback_churn",
                               callback_churn)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  for (const std::size_t size : {64u, 256u, 1024u, 4096u, 65536u}) {
    benchmark::RegisterBenchmark(
        ("engine/crc/" + size_label(size)).c_str(),
        [size](benchmark::State& state) { crc_throughput(state, size); })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("engine/fig9_style", fig9_style)
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
  return 0;
}();

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  // Strip --smoke before google-benchmark sees the argv.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      efac::bench::g_smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int filtered_argc = static_cast<int>(args.size()) - 1;
  return efac::bench::bench_main(filtered_argc, args.data(), "engine");
}
