// Figure 2: GET latency breakdown for Erda and Forca.
//
// One client reads a loaded, settled store; the CRC component is the
// verification cost per read (client-side for Erda, server-side for
// Forca), the remainder is network + server processing. The paper reports
// ≈4.4 µs of CRC at 4 KB — 45 % of Erda's and 35 % of Forca's read
// latency.
//
// The breakdown is DERIVED FROM TRACER SPANS, not from the cost model:
// measure_get_latency() folds the run's span histograms into
// metrics_sink() under "get/<system>/<size>/", and the CRC share is the
// recorded verification time ("span.get.crc" client-side for Erda,
// "span.server.get_crc" server-side for Forca) averaged over the traced
// GETs ("span.get.total").
#include "bench_common.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;

/// Mean traced CRC time per GET, in us, for one measured point.
double traced_crc_us(SystemKind kind, std::size_t value_len) {
  std::string prefix = "get/";
  prefix += stores::to_string(kind);
  prefix += "/";
  prefix += size_label(value_len);
  prefix += "/span.";
  const Histogram* total =
      metrics_sink().find_histogram(prefix + "get.total");
  const Histogram* crc = metrics_sink().find_histogram(
      prefix +
      (kind == SystemKind::kForca ? "server.get_crc" : "get.crc"));
  if (total == nullptr || total->count() == 0 || crc == nullptr) return 0.0;
  return static_cast<double>(crc->sum()) /
         static_cast<double>(total->count()) / 1000.0;
}

void get_breakdown(SystemKind kind, std::size_t value_len) {
  const Histogram hist = measure_get_latency(kind, value_len);
  const double mean_us = hist.mean() / 1000.0;
  const double crc_us = traced_crc_us(kind, value_len);
  const double crc_pct = 100.0 * crc_us / mean_us;

  const std::string row{stores::to_string(kind)};
  Summary::instance().add("Fig.2 — mean GET latency (us)", row,
                          size_label(value_len), mean_us);
  Summary::instance().add("Fig.2 — CRC time on the read path (us)", row,
                          size_label(value_len), crc_us);
  Summary::instance().add("Fig.2 — CRC share of read latency (%)", row,
                          size_label(value_len), crc_pct, 1);
  Summary::instance().add("Fig.2 — network+server share (us)", row,
                          size_label(value_len), mean_us - crc_us);
}

void add_points(Points& points) {
  for (const SystemKind kind : {SystemKind::kErda, SystemKind::kForca}) {
    for (const std::size_t size : value_sizes()) {
      std::string name = "fig2/get_breakdown/";
      name += stores::to_string(kind);
      name += "/";
      name += size_label(size);
      points.push_back({name, [kind, size] { get_breakdown(kind, size); }});
    }
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  return efac::bench::bench_main(argc, argv, "fig2", efac::bench::add_points);
}
