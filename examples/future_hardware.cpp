// Future-hardware demo: what would the proposed RDMA Commit verb buy?
//
//   $ ./examples/future_hardware
//
// The paper (§7.1) surveys proposed primitives — rcommit / RDMA Durable
// Write Commit, rdma_pwrite, rofence — and deliberately designs eFactory
// without them ("our work is based on current RDMA primitives and
// requires no special hardware"). This demo runs the same durable-write
// microbenchmark as Fig. 1 against the RcommitStore to show the latency
// those verbs would unlock, and what eFactory recovers of that gap in
// software.
#include <cstdio>

#include "stores/world.hpp"
#include "common/histogram.hpp"
#include "workload/ycsb.hpp"

using namespace efac;  // NOLINT: example brevity

namespace {

double median_put_latency_us(stores::SystemKind kind, std::size_t vlen) {
  stores::StoreConfig config;
  config.pool_bytes = 8 * sizeconst::kMiB;
  stores::World world{kind, config};
  world.start();
  stores::ClientOptions copts;
  copts.size_hint = {32, vlen};
  stores::KvClient& client = world.make_client(copts);
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 32, .key_len = 32, .value_len = vlen}};

  Histogram hist;
  bool done = false;
  world.sim.spawn([](sim::Simulator& s, stores::KvClient& c,
                     workload::Workload& w, std::size_t n, Histogram* out,
                     bool* flag) -> sim::Task<void> {
    for (std::size_t i = 0; i < n + 50; ++i) {
      const std::uint64_t key = i % 32;
      const SimTime start = s.now();
      static_cast<void>(co_await c.put(w.key_at(key), w.value_for(key, i)));
      if (i >= 50) out->record(s.now() - start);
    }
    *flag = true;
  }(world.sim, client, wl, 400, &hist, &done));
  while (!done) world.sim.run_until(world.sim.now() + timeconst::kMillisecond);
  return static_cast<double>(hist.percentile(0.5)) / 1000.0;
}

}  // namespace

int main() {
  using stores::SystemKind;
  const std::vector<std::size_t> sizes{64, 1024, 4096};
  const std::vector<SystemKind> kinds{
      SystemKind::kSaw,     SystemKind::kImm,      SystemKind::kRpc,
      SystemKind::kEFactory, SystemKind::kRcommit,
  };

  std::printf("median durable-write latency (us) — what the proposed "
              "rcommit verb would buy:\n\n%-22s", "");
  for (const std::size_t s : sizes) std::printf("%8zuB", s);
  std::printf("\n");
  for (const SystemKind kind : kinds) {
    std::printf("%-22s", std::string{stores::to_string(kind)}.c_str());
    for (const std::size_t s : sizes) {
      std::printf("%9.2f", median_put_latency_us(kind, s));
    }
    std::printf("\n");
  }
  std::printf(
      "\nSAW/IMM pay the durability round trip plus a server-CPU flush;\n"
      "Rcommit pushes the flush into the target NIC with zero server CPU\n"
      "after allocation — but needs hardware that does not ship today.\n"
      "eFactory gets close with software only, by taking durability off\n"
      "the critical path entirely (note: its PUT ack does not imply\n"
      "durability; the background verifier provides it asynchronously).\n");
  return 0;
}
