// Figure 1: latency of writing to remote NVMM durably, by method.
//
// Methods (paper §3): RPC (server copies + persists), SAW (send-after-
// write), IMM (write_with_imm), and the client-active scheme without a
// persistence guarantee. One client, per-value-size sweep; reports median
// and 99th-percentile virtual-time latency.
//
// Expected shape (paper): CA w/o persistence is fastest (≈36 % better
// than RPC); IMM lands near RPC; SAW is worse than RPC at every size.
#include "bench_common.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;

const std::vector<SystemKind>& fig1_systems() {
  static const std::vector<SystemKind> kSystems{
      SystemKind::kRpc,
      SystemKind::kSaw,
      SystemKind::kImm,
      SystemKind::kCaNoPersist,
      // Not in the paper's Fig. 1, but useful context: the full system and
      // the future-hardware rcommit variant (§7.1).
      SystemKind::kEFactory,
      SystemKind::kRcommit,
  };
  return kSystems;
}

void write_latency(SystemKind kind, std::size_t value_len) {
  const Histogram hist = measure_put_latency(kind, value_len);
  const double median_us = static_cast<double>(hist.percentile(0.5)) / 1000.0;
  const double p99_us = static_cast<double>(hist.percentile(0.99)) / 1000.0;
  const std::string row{stores::to_string(kind)};
  Summary::instance().add("Fig.1 — median durable-write latency (us)", row,
                          size_label(value_len), median_us);
  Summary::instance().add("Fig.1 — p99 durable-write latency (us)", row,
                          size_label(value_len), p99_us);
}

void add_points(Points& points) {
  for (const SystemKind kind : fig1_systems()) {
    for (const std::size_t size : value_sizes()) {
      std::string name = "fig1/write_latency/";
      name += stores::to_string(kind);
      name += "/";
      name += size_label(size);
      points.push_back({name, [kind, size] { write_latency(kind, size); }});
    }
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  return efac::bench::bench_main(argc, argv, "fig1", efac::bench::add_points);
}
