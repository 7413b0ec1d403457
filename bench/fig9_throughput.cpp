// Figure 9: end-to-end throughput vs value size, four YCSB mixes,
// 8 concurrent clients (paper §6.1).
//
// Systems: eFactory, eFactory w/o hr (factor analysis), IMM, SAW, Erda,
// Forca. Expected shape:
//   (a) read-only:      eFactory ≈ IMM ≈ SAW; Erda falls behind as value
//       size grows (client CRC); Forca is lowest (RPC reads).
//   (b) read-intensive: same ordering, slightly larger eFactory/IMM gap.
//   (c) write-intensive: eFactory highest at every size.
//   (d) update-only:    eFactory > Erda (5–22 %) ≈ Forca ≫ IMM, SAW.
#include "bench_common.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;
using workload::Mix;

constexpr std::size_t kClients = 8;

std::string mix_table(Mix mix) {
  std::string name = "Fig.9";
  switch (mix) {
    case Mix::kReadOnly: name += "(a) read-only"; break;
    case Mix::kReadIntensive: name += "(b) read-intensive"; break;
    case Mix::kWriteIntensive: name += "(c) write-intensive"; break;
    case Mix::kUpdateOnly: name += "(d) update-only"; break;
  }
  return name + " — throughput (Mops/s), 8 clients";
}

void throughput(SystemKind kind, Mix mix, std::size_t value_len) {
  const workload::RunResult result =
      throughput_point(kind, mix, value_len, kClients);
  Summary::instance().add(mix_table(mix), std::string{stores::to_string(kind)},
                          size_label(value_len), result.mops, 3);
  Summary::instance().add("Fig.9 companion — mean op latency (us), " +
                              std::string{workload::to_string(mix)},
                          std::string{stores::to_string(kind)},
                          size_label(value_len), result.mean_latency_us());
}

void add_points(Points& points) {
  for (const workload::Mix mix : workload::all_mixes()) {
    for (const SystemKind kind : stores::throughput_systems()) {
      for (const std::size_t size : value_sizes()) {
        std::string name = "fig9/throughput/";
        name += workload::to_string(mix);
        name += "/";
        name += stores::to_string(kind);
        name += "/";
        name += size_label(size);
        points.push_back(
            {name, [kind, mix, size] { throughput(kind, mix, size); }});
      }
    }
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  return efac::bench::bench_main(argc, argv, "fig9", efac::bench::add_points);
}
