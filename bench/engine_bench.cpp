// Engine microbenchmarks: *wall-clock* speed of the simulation engine
// itself, unlike the figure benches which report virtual-time results.
//
// Four groups, exported to BENCH_engine.json (efac.bench.v1):
//   engine/scheduler/* — events/sec for schedule/dispatch mixes
//     (coroutine resumptions and small-capture callbacks, near-future
//     deltas plus a far-timer fraction that exercises the heap fallback);
//   engine/crc/*       — CRC32 GB/s per size class, dispatched kernel vs
//     the portable software kernel;
//   engine/fig9_style  — wall-clock of an end-to-end fig9-style eFactory
//     run, the number that bounds every figure reproduction;
//   engine/locate_chain — host ns and arena loads per eFactory RPC
//     version lookup over a full-length version chain.
//
// `--smoke` shrinks every workload for CI: same coverage, minimal runtime.
#include <chrono>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "checksum/crc32.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/efactory.hpp"
#include "stores/world.hpp"

namespace efac::bench {
namespace {

bool g_smoke = false;

// Results the measured loops must compute are stored here, so the compiler
// cannot drop the work as dead.
volatile std::uint64_t g_result_sink = 0;

double wall_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Publish one scheduler measurement: throughput gauge plus the queue-path
/// counters that make regressions diagnosable.
void report_scheduler(const std::string& name, const sim::Simulator& sim,
                      double secs) {
  const double events_per_sec =
      static_cast<double>(sim.events_processed()) / secs;
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

void coroutine_churn() {
  const std::size_t actors = 64;
  const std::size_t iters = g_smoke ? 2000 : 40000;
  sim::Simulator sim;
  for (std::size_t a = 0; a < actors; ++a) {
    sim.spawn(churn_actor(sim, a, iters));
  }
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  report_scheduler("coroutine_churn", sim, wall_seconds(start));
}

void callback_churn() {
  const std::size_t chains = 64;
  const std::size_t iters = g_smoke ? 2000 : 40000;
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
  g_result_sink = sink;
  report_scheduler("callback_churn", sim, secs);
}

void crc_throughput(std::size_t size) {
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
    g_result_sink = acc;
    const double secs = wall_seconds(start);
    return static_cast<double>(reps * size) / secs / 1e9;
  };

  const checksum::CrcCounters before = checksum::crc_counters();
  const double dispatched_gbps = measure([](BytesView v, std::uint32_t s) {
    return checksum::crc32(v, s);
  });
  const double sw_gbps = measure([](BytesView v, std::uint32_t s) {
    return checksum::crc32_software(v, s);
  });
  const checksum::CrcCounters after = checksum::crc_counters();

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

void fig9_style() {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kUpdateOnly;
  options.workload.key_count = 256;
  options.workload.key_len = 32;
  options.workload.value_len = 1024;
  options.workload.seed = 0xE27;
  options.clients = 8;
  options.ops_per_client = g_smoke ? 50 : 400;

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

  const std::string table = "Engine — fig9-style end-to-end";
  Summary::instance().add(table, "eFactory", "wall_ms", secs * 1e3);
  Summary::instance().add(table, "eFactory", "Mevents/s",
                          events_per_sec / 1e6);
  Summary::instance().add(table, "eFactory", "sim Mops", result.mops, 3);
  metrics::MetricsRegistry& sink = metrics_sink();
  sink.gauge("engine/fig9_style/wall_ms").set(secs * 1e3);
  sink.gauge("engine/fig9_style/events_per_sec").set(events_per_sec);
  // Folds in the run's sim.events.* and crc.* counters.
  sink.merge_from(result.metrics, "engine/fig9_style/");
}

/// One eFactory key whose chain holds kMaxChain versions, read through the
/// RPC path. Before every read the head's durability flag is cleared, so
/// each locate walks and orders the whole chain and then CRC-verifies the
/// head. Reports the host ns per locate (wall-clock, includes the RPC
/// round trip) and the arena loads per locate (deterministic).
void locate_chain() {
  constexpr std::size_t kKeyLen = 32;
  constexpr std::size_t kValueLen = 256;
  const std::size_t locates = g_smoke ? 500 : 50000;
  stores::StoreConfig config;
  config.pool_bytes = 4 * sizeconst::kMiB;
  config.hash_buckets = 1u << 12;
  stores::World world{stores::SystemKind::kEFactory, config};
  sim::Simulator& sim = world.sim;
  world.start();
  stores::ClientOptions options;
  options.size_hint = {kKeyLen, kValueLen};
  options.read_mode = stores::ReadMode::kRpcOnly;
  stores::KvClient& client = world.make_client(options);
  auto& store = dynamic_cast<stores::EFactoryStore&>(world.store());
  const workload::Workload workload{workload::WorkloadConfig{
      .key_count = 1, .key_len = kKeyLen, .value_len = kValueLen}};
  const Bytes key = workload.key_at(0);

  bool loaded = false;
  sim.spawn([](stores::KvClient& c, const workload::Workload& w,
               bool* flag) -> sim::Task<void> {
    for (int v = 0; v < stores::StoreBase::kMaxChain; ++v) {
      const Status status = co_await c.put(
          w.key_at(0), w.value_for(0, static_cast<std::uint64_t>(v)));
      EFAC_CHECK(status.is_ok());
    }
    *flag = true;
  }(client, workload, &loaded));
  while (!loaded || store.verify_queue_depth() > 0) {
    sim.run_until(sim.now() + 100 * timeconst::kMicrosecond);
  }
  const Expected<std::size_t> slot = store.dir().find(kv::hash_key(key));
  EFAC_CHECK(slot.has_value());
  const kv::ObjectRef head{store.arena(), store.dir().read(*slot).current()};

  const std::uint64_t loads_before = store.arena().stats().cpu_loads;
  bool done = false;
  const auto start = std::chrono::steady_clock::now();
  sim.spawn([](stores::KvClient& c, Bytes k, kv::ObjectRef obj,
               std::size_t n, bool* flag) -> sim::Task<void> {
    for (std::size_t i = 0; i < n; ++i) {
      obj.set_durable(kKeyLen, kValueLen, false);
      const Expected<Bytes> value = co_await c.get(k);
      EFAC_CHECK(value.has_value());
    }
    *flag = true;
  }(client, key, head, locates, &done));
  while (!done) sim.run_until(sim.now() + timeconst::kMillisecond);
  const double secs = wall_seconds(start);
  const double ns_per_locate =
      secs * 1e9 / static_cast<double>(locates);
  const double loads_per_locate =
      static_cast<double>(store.arena().stats().cpu_loads - loads_before) /
      static_cast<double>(locates);

  Summary::instance().add("Engine — RPC locate, 32-version chain",
                          "eFactory", "host ns/locate", ns_per_locate, 0);
  Summary::instance().add("Engine — RPC locate, 32-version chain",
                          "eFactory", "arena loads/locate",
                          loads_per_locate, 1);
  metrics::MetricsRegistry& sink = metrics_sink();
  sink.gauge("engine/locate_chain/host_ns_per_locate").set(ns_per_locate);
  sink.gauge("engine/locate_chain/arena_loads_per_locate")
      .set(loads_per_locate);
}

void add_points(Points& points) {
  points.push_back({"engine/scheduler/coroutine_churn", coroutine_churn});
  points.push_back({"engine/scheduler/callback_churn", callback_churn});
  for (const std::size_t size : {64u, 256u, 1024u, 4096u, 65536u}) {
    points.push_back(
        {"engine/crc/" + size_label(size), [size] { crc_throughput(size); }});
  }
  points.push_back({"engine/fig9_style", fig9_style});
  points.push_back({"engine/locate_chain", locate_chain});
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  using namespace efac::bench;
  return bench_main(argc, argv, "engine", add_points,
                    {switch_flag("--smoke", &g_smoke)});
}
