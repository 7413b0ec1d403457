// Shared helpers for the figure-reproduction benches.
//
// Every bench binary follows the same pattern: it registers named points
// (one configuration each, run once, in registration order) that drive
// fresh simulated clusters, and every measured number is registered in
// the Summary singleton, which prints paper-style tables after the run so
// outputs can be diffed against EXPERIMENTS.md. In addition, every
// measurement helper folds its run's MetricsRegistry (counters + span
// histograms) into the process-wide metrics_sink() under a per-point
// prefix, and bench_main() exports the sink to BENCH_<figure>.json.
#pragma once

#include <functional>
#include <map>
#include <regex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/table.hpp"
#include "metrics/json.hpp"
#include "metrics/metrics.hpp"
#include "workload/runner.hpp"

namespace efac::bench {

/// The value sizes swept in the paper's figures.
inline const std::vector<std::size_t>& value_sizes() {
  static const std::vector<std::size_t> kSizes{64, 256, 1024, 2048, 4096};
  return kSizes;
}

inline std::string size_label(std::size_t bytes) {
  if (bytes >= 1024 && bytes % 1024 == 0) {
    return std::to_string(bytes / 1024) + "KB";
  }
  return std::to_string(bytes) + "B";
}

/// Process-wide registry collecting every measured point's metrics.
/// Helpers merge per-run registries here under "<op>/<system>/<size>/"
/// prefixes; bench_main() writes the whole sink to BENCH_<figure>.json.
metrics::MetricsRegistry& metrics_sink();

/// Separate sink for the sharded scalability sweep. Points land under
/// "run/<mix>/<system>/<size>/shards:N/clients:C/" prefixes; when
/// non-empty after the run, bench_main() writes it to BENCH_shard.json
/// (beside the figure's own export).
metrics::MetricsRegistry& shard_sink();

/// Batch size for the workload-runner mixes, from --batch=N (parsed by
/// bench_main; default 1 = plain sync ops).
std::size_t batch_size();

/// --trace-out=<path> support (the flag is parsed by bench_main): when
/// active, the measurement helpers run their clusters with the flight
/// recorder enabled and adopt one labelled snapshot of each run's event
/// log; bench_main writes the Chrome trace-event JSON to <path> and the
/// compact binary dump (bench/trace_inspect's input) to <path>.bin.
/// Combine with --system= filters to keep the export small.
bool trace_requested();

/// Turn the flight recorder on in `config` iff --trace-out is active.
void maybe_enable_trace(stores::StoreConfig& config);

/// Snapshot the store's event log under `label` (no-op unless tracing).
void maybe_adopt_trace(stores::StoreBase& store, std::string label);

/// --telemetry[=<period_ns>] / --slo=<rule[;rule...]> support (both parsed
/// by bench_main; --slo implies --telemetry). When active, the
/// measurement helpers run their clusters with the virtual-time sampler on
/// and adopt one labelled snapshot per run; bench_main validates and writes
/// the combined efac.telemetry.v1 document to TELEM_<figure>.json. With
/// --slo=, any recorded violation makes the bench exit non-zero (the SLO
/// gate CI runs).
bool telemetry_requested();

/// Turn the telemetry sampler on in `config` iff --telemetry is active.
void maybe_enable_telemetry(stores::StoreConfig& config);

/// Snapshot the store's sampler under `label` (no-op unless telemetry).
void maybe_adopt_telemetry(stores::StoreBase& store, std::string label);

/// Latency of single-client durable PUTs (Fig. 1 methodology).
Histogram measure_put_latency(stores::SystemKind kind, std::size_t value_len,
                              std::size_t ops = 1200,
                              std::uint64_t seed = 0xF16);

/// Latency of single-client GETs against a loaded, settled store (Fig. 2).
Histogram measure_get_latency(stores::SystemKind kind, std::size_t value_len,
                              std::size_t ops = 1200,
                              std::uint64_t seed = 0xF26);

/// One throughput point (Figs. 9 and 10 methodology). `client` templates
/// every client the harness creates (BENCH_adaptive sweeps it to turn the
/// adaptive hybrid read on); the default is the plain client.
workload::RunResult throughput_run(stores::SystemKind kind, workload::Mix mix,
                                   std::size_t value_len, std::size_t clients,
                                   std::size_t ops_per_client = 800,
                                   std::uint64_t key_count = 1024,
                                   std::uint64_t seed = 0xF9,
                                   stores::ClientOptions client = {});

/// Averaged throughput point: "each data value is the average of 5-run
/// results" (paper §5.2). Runs 5 independent seeds and averages mops and
/// latency; the other counters come from the first run.
workload::RunResult throughput_point(stores::SystemKind kind,
                                     workload::Mix mix,
                                     std::size_t value_len,
                                     std::size_t clients,
                                     std::size_t ops_per_client = 800,
                                     std::uint64_t key_count = 1024,
                                     int runs = 5,
                                     stores::ClientOptions client = {});

/// One throughput point against a sharded cluster (shards × clients
/// sweep). The key distribution defaults to near-uniform (theta 0.05):
/// the sweep measures shard-count scaling, and a Zipf-0.99 hot key would
/// cap aggregate throughput at the hot shard's service rate regardless of
/// cluster size.
workload::RunResult sharded_throughput_run(
    stores::SystemKind kind, workload::Mix mix, std::size_t value_len,
    std::size_t clients, std::size_t shards, std::size_t ops_per_client,
    std::uint64_t key_count, std::uint64_t seed, double zipf_theta = 0.05);

/// Averaged sharded point; merges the combined registry into shard_sink()
/// under "run/<mix>/<system>/<size>/shards:N/clients:C/" and records the
/// run.put_mops / run.mops gauges the scaling analysis reads.
workload::RunResult sharded_throughput_point(
    stores::SystemKind kind, workload::Mix mix, std::size_t value_len,
    std::size_t clients, std::size_t shards, std::size_t ops_per_client = 400,
    std::uint64_t key_count = 2048, int runs = 3, double zipf_theta = 0.05);

/// Collects (table, row, column) -> formatted cell across points and
/// prints every table at exit, in registration order.
class Summary {
 public:
  static Summary& instance();

  void add(const std::string& table, const std::string& row,
           const std::string& column, double value, int precision = 2);

  void print_all() const;

 private:
  struct Table {
    std::vector<std::string> columns;  // insertion order
    std::vector<std::string> rows;     // insertion order
    std::map<std::string, std::map<std::string, std::string>> cells;
  };
  std::vector<std::string> table_order_;
  std::map<std::string, Table> tables_;
};

/// One measured configuration: its name ("fig2/get_breakdown/Erda/4KB")
/// and the body that measures it and records into Summary and the sinks.
struct Point {
  std::string name;
  std::function<void()> run;
};
using Points = std::vector<Point>;

/// A flag one bench binary takes on top of the common ones. A `name`
/// ending in '=' takes a value ("--plan="); any other name is a bare
/// switch ("--smoke") and `apply` gets an empty value. `apply` returns
/// false after printing why the value is bad, and bench_main exits 1.
struct BenchFlag {
  std::string_view name;
  std::function<bool(std::string_view value)> apply;
};

/// A bare switch that sets `*on`.
BenchFlag switch_flag(std::string_view name, bool* on);

/// Parse "1,2,4" into positive counts; empty/invalid lists return false.
bool parse_count_list(std::string_view arg, std::vector<std::size_t>* out);

/// Selects points by name: --filter=<regex> (POSIX extended, matched
/// anywhere in the name) or --system=<name>[,<name>...], which compiles
/// into "/(<display names>)(/|$)" so "eFactory" does not also select
/// "eFactory w/o hr". Whichever flag is applied last wins.
class PointFilter {
 public:
  /// Apply one --filter= value; false (after a message) on a bad regex.
  bool set_filter(std::string_view regex);
  /// Apply one --system= value; false (after listing the valid names) on
  /// an unknown system.
  bool set_system(std::string_view names);
  [[nodiscard]] bool selects(std::string_view point_name) const;
  [[nodiscard]] const std::string& pattern() const noexcept {
    return pattern_;
  }

 private:
  std::string pattern_;  // empty = every point
  std::regex regex_{pattern_, std::regex::extended};
};

/// main() body shared by every bench binary. Parses the common flags
/// (--filter=, --system=, --batch=, --trace-out=, --telemetry[=ns],
/// --slo=) plus the bench's own `flags`; any other argument exits 1. Then
/// calls `add_points`, runs the selected points in registration order
/// (one "<name>  <host ms> ms" line each; a filter selecting none exits
/// 1), prints the summary tables, and exports metrics_sink() to
/// BENCH_<figure>.json in the working directory.
int bench_main(int argc, char** argv, std::string_view figure,
               const std::function<void(Points&)>& add_points,
               std::vector<BenchFlag> flags = {});

}  // namespace efac::bench
