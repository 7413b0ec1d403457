// Batched PUT throughput: virtual-time ops/s vs batch size.
//
// One client drives update-only PUTs through `KvClient::put_batch` at
// batch sizes 1–64 across the paper's small-to-page value sizes. Batch
// size 1 is the plain synchronous `put()` — today's baseline. Systems
// with a batch-reserve alloc path (eFactory, IMM, Erda) amortize the
// allocation round trip and the WRITE post overhead across the batch;
// SAW has no batch path and shows what window pipelining alone buys.
//
// Exported to BENCH_batch.json (efac.bench.v1) under
// `batch/<system>/<size>/B<batch>/`: throughput (`mops`), the per-op
// server round-trip cost (`alloc_rpcs_per_op`, ~1/batch on eFactory and
// Erda), the server request/alloc deltas, and every client counter —
// `client.batches`, `client.inflight_peak`, retry totals.
//
// Expected shape: throughput grows with batch size, with a >10 % win
// over batch=1 already at 64–256 B on eFactory and IMM, where the alloc
// RPC dominates small-payload PUT latency.
//
// `--smoke` shrinks the sweep for CI: same coverage, minimal runtime.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/assert.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/world.hpp"
#include "workload/runner.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;

bool g_smoke = false;

const std::vector<SystemKind>& batch_systems() {
  static const std::vector<SystemKind> kSystems{
      SystemKind::kEFactory,
      SystemKind::kImm,
      SystemKind::kErda,
      // No batch-reserve path: falls back to pipelined single ops, the
      // "window-only" comparison line.
      SystemKind::kSaw,
  };
  return kSystems;
}

std::vector<std::size_t> batch_sizes() {
  if (g_smoke) return {1, 8, 64};
  return {1, 2, 4, 8, 16, 32, 64};
}

std::size_t total_ops() { return g_smoke ? 256 : 2048; }

struct BatchPoint {
  double mops = 0;
  double alloc_rpcs_per_op = 0;
  std::uint64_t server_requests = 0;
  std::uint64_t server_allocs = 0;
};

sim::Task<void> drive_batches(stores::KvClient& client,
                              const workload::Workload& wl,
                              std::size_t ops, std::size_t batch,
                              sim::Simulator& sim, SimTime* end,
                              bool* done) {
  const std::uint64_t keys = wl.config().key_count;
  for (std::size_t op = 0; op < ops; op += batch) {
    if (batch == 1) {
      // The baseline: today's synchronous single-op path.
      const std::uint64_t k = op % keys;
      co_await client.put(wl.key_at(k), wl.value_for(k, op / keys + 1));
      continue;
    }
    std::vector<stores::KvClient::PutOp> members;
    members.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const std::uint64_t k = (op + i) % keys;
      members.push_back({wl.key_at(k), wl.value_for(k, op / keys + 1)});
    }
    const std::vector<Status> statuses =
        co_await client.put_batch(std::move(members));
    for (const Status& s : statuses) {
      EFAC_CHECK_MSG(s.is_ok(), "batch_bench: unexpected PUT failure");
    }
  }
  *end = sim.now();
  *done = true;
}

BatchPoint run_point(SystemKind kind, std::size_t value_len,
                      std::size_t batch) {
  workload::RunOptions sizing;
  sizing.workload.mix = workload::Mix::kUpdateOnly;
  sizing.workload.key_count = 256;
  sizing.workload.key_len = 32;
  sizing.workload.value_len = value_len;
  sizing.workload.seed = 0xBA7C;
  sizing.clients = 1;
  sizing.ops_per_client = total_ops();

  stores::StoreConfig config = workload::sized_store_config(sizing);
  maybe_enable_trace(config);
  stores::World world{kind, config};
  world.start();

  stores::ClientOptions options;
  options.size_hint = {sizing.workload.key_len, value_len};
  stores::KvClient& client = world.make_client(options);
  const workload::Workload wl{sizing.workload};

  const stores::ServerStats before = world.store().server_stats();
  const SimTime start = world.sim.now();
  SimTime end = start;
  bool done = false;
  world.sim.spawn(
      drive_batches(client, wl, total_ops(), batch, world.sim, &end, &done));
  while (!done) world.sim.run_until(world.sim.now() + timeconst::kMillisecond);
  const stores::ServerStats after = world.store().server_stats();

  BatchPoint p;
  const double elapsed_us =
      static_cast<double>(end - start) / timeconst::kMicrosecond;
  p.mops = static_cast<double>(total_ops()) / elapsed_us;
  p.server_requests = after.requests - before.requests;
  p.server_allocs = after.allocs - before.allocs;
  p.alloc_rpcs_per_op = static_cast<double>(p.server_requests) /
                        static_cast<double>(total_ops());

  const std::string prefix = "batch/" + std::string{stores::to_string(kind)} +
                             "/" + size_label(value_len) + "/B" +
                             std::to_string(batch) + "/";
  metrics::MetricsRegistry& sink = metrics_sink();
  sink.gauge(prefix + "mops").set(p.mops);
  sink.gauge(prefix + "alloc_rpcs_per_op").set(p.alloc_rpcs_per_op);
  sink.counter(prefix + "server.requests") += p.server_requests;
  sink.counter(prefix + "server.allocs") += p.server_allocs;
  sink.merge_from(client.metrics(), prefix);
  maybe_adopt_trace(world.store(), prefix);
  return p;
}

void batch_sweep(SystemKind kind, std::size_t value_len) {
  double base_mops = 0;
  const std::string row{stores::to_string(kind)};
  for (const std::size_t batch : batch_sizes()) {
    const BatchPoint p = run_point(kind, value_len, batch);
    if (batch == 1) base_mops = p.mops;
    const std::string column = "B=" + std::to_string(batch);
    Summary::instance().add(
        "Batched PUT throughput (Mops/s) — " + size_label(value_len), row,
        column, p.mops);
    Summary::instance().add(
        "Server round trips per PUT — " + size_label(value_len), row, column,
        p.alloc_rpcs_per_op);
    if (batch > 1 && base_mops > 0) {
      Summary::instance().add("Speedup vs batch=1 — " + size_label(value_len),
                              row, column, p.mops / base_mops);
    }
  }
}

void add_points(Points& points) {
  for (const SystemKind kind : batch_systems()) {
    for (const std::size_t size : {64u, 256u, 1024u, 4096u}) {
      std::string name = "batch/";
      name += stores::to_string(kind);
      name += "/";
      name += size_label(size);
      points.push_back({name, [kind, size] { batch_sweep(kind, size); }});
    }
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  using namespace efac::bench;
  return bench_main(argc, argv, "batch", add_points,
                    {switch_flag("--smoke", &g_smoke)});
}
