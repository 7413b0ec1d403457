// Repository benchmark harness.
//
// Runs one named workload against eFactory end to end through the public
// entry points (workload::sized_store_config -> stores::make_sharded_cluster
// -> workload::run_workload), checks the outputs, and prints every metric
// by name with its unit. The last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Two kinds of number come out of a run:
//   virtual  simulator time (Mops/s, latency percentiles) - the
//            reproduction's claims, a pure function of the seed;
//   host     steady_clock time this process spends producing them,
//            scaled by a speed probe timed before every iteration so
//            that load from other tenants of the machine cancels out.
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: registry counts per measured op, host-time
// microbenches of one public entry point per layer, and the overhead of
// the harness's own spans (recorded around setup, run, read-back, teardown
// and each microbench, kept in memory and written as JSON at exit).
// Nothing inside the libraries is traced or changed.
//
//   efac_perfbench --workload read95-256B --seed 1 --seconds 25 --trace 0
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checksum/crc32.hpp"
#include "common/histogram.hpp"
#include "kv/object.hpp"
#include "metrics/metrics.hpp"
#include "metrics/trace.hpp"
#include "nvm/arena.hpp"
#include "rdma/fabric.hpp"
#include "rdma/node.hpp"
#include "rdma/queue_pair.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/factory.hpp"
#include "stores/sharding.hpp"
#include "workload/runner.hpp"
#include "workload/ycsb.hpp"

namespace efac::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// CPU time of the calling thread (the simulator is single-threaded).
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host speed probe: a fixed dependent integer loop, always compiled
/// optimised so an -O0 build of the program does not slow it. Other
/// tenants of the machine change the host's speed by up to 1.9x over
/// minutes; over 25 s windows this loop's time correlates 0.98 with the
/// program's, while single iterations of either are noisier.
[[gnu::optimize("O2")]] double probe_seconds() {
  const Clock::time_point start = Clock::now();
  std::uint64_t x = 1;
  for (int i = 0; i < 30'000'000; ++i) {
    x = (x * 6364136223846793005ull + 1442695040888963407ull) ^ (x >> 13);
  }
  const double elapsed = seconds_since(start);
  EFAC_CHECK(x != 0 || elapsed >= 0.0);  // keep the loop live
  return elapsed;
}

/// The probe's time on the tuning host (4-vCPU Intel Xeon KVM guest) in
/// its faster state. Host times are scaled by this / the run's median
/// probe time, so they read as seconds on that host (see README.md).
constexpr double kProbeReferenceSeconds = 0.045;

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// ------------------------------------------------------------- workloads

struct WorkloadSpec {
  std::string_view name;
  workload::Mix mix;
  std::size_t value_len;
  std::size_t clients;
  std::size_t ops_per_client;
  std::size_t shards;
  std::size_t batch;
  bool for_cleaning;
};

// Shared: eFactory, 10,000 32-byte keys, Zipf 0.99 scrambled, closed loop,
// every ClientOptions/StoreConfig feature at its default. Sizing and the
// reason for each workload are in README.md.
constexpr std::uint64_t kKeys = 10'000;
constexpr std::size_t kKeyLen = 32;

constexpr WorkloadSpec kWorkloads[] = {
    {"read95-256B", workload::Mix::kReadIntensive, 256, 8, 50'000, 1, 1,
     false},
    {"write50-2KB-clean", workload::Mix::kWriteIntensive, 2048, 8, 75'000, 1,
     1, true},
    {"shard4-batch8", workload::Mix::kWriteIntensive, 256, 64, 2'400, 4, 8,
     false},
};

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

workload::RunOptions run_options(const WorkloadSpec& spec, std::uint64_t seed,
                                 double scale) {
  workload::RunOptions options;
  options.workload.mix = spec.mix;
  options.workload.key_count = kKeys;
  options.workload.key_len = kKeyLen;
  options.workload.value_len = spec.value_len;
  options.workload.seed = seed;
  options.clients = spec.clients;
  options.batch = spec.batch;
  // Whole batches per client, at least one.
  const auto scaled = static_cast<std::size_t>(
      std::llround(static_cast<double>(spec.ops_per_client) * scale));
  options.ops_per_client =
      std::max(spec.batch, scaled / spec.batch * spec.batch);
  return options;
}

// ------------------------------------------------------------ harness spans

/// The harness's own spans: name, start, end (seconds since process start),
/// parent index and run id. Kept in memory, written out at exit. A
/// disabled log records nothing (the untraced runs).
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = static_cast<int>(log_.records_.size());
      log_.records_.push_back(
          Record{std::move(name), log_.now(), 0.0, log_.open_, log_.run_});
      log_.open_ = index_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (index_ < 0) return;
      Record& record = log_.records_[static_cast<std::size_t>(index_)];
      record.end = log_.now();
      log_.open_ = record.parent;
    }

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_run(int run) { run_ = run; }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"parent\": %d, \"run\": %d}%s\n",
                    i, r.name.c_str(), r.start, r.end, r.parent, r.run,
                    i + 1 == records_.size() ? "" : ",");
      out << line;
    }
    out << "]}\n";
  }

 private:
  double now() const { return seconds_since(origin_); }

  Clock::time_point origin_;
  std::vector<Record> records_;
  bool enabled_ = false;
  int open_ = -1;
  int run_ = 0;
};

// --------------------------------------------------------- one iteration

/// Virtual outputs of a run: must repeat exactly for the same seed.
struct VirtualOutputs {
  double sim_mops = 0.0;
  SimDuration span_ns = 0;
  std::uint64_t ops = 0, puts = 0, gets = 0;
  std::uint64_t put_failures = 0, get_failures = 0, readback_misses = 0;
  std::uint64_t events = 0;
  std::uint64_t dispatch_hash = 0;
  std::uint64_t put_sum = 0, get_sum = 0;

  friend bool operator==(const VirtualOutputs&,
                         const VirtualOutputs&) = default;
};

struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_cpu_s = 0.0;
  double wall_s = 0.0;
  std::size_t pool_bytes = 0;
  workload::RunResult result;
  VirtualOutputs out;
};

sim::Task<void> read_back(stores::KvClient& client,
                          const workload::Workload& workload,
                          std::uint64_t keys, std::size_t value_len,
                          std::uint64_t* misses, bool* done) {
  for (std::uint64_t k = 0; k < keys; ++k) {
    const Expected<Bytes> value = co_await client.get(workload.key_at(k));
    if (!value || value->size() != value_len) ++*misses;
  }
  *done = true;
}

/// Set up a cluster for `options` (config sizing + construction).
struct Setup {
  std::unique_ptr<sim::Simulator> sim;
  stores::ShardedCluster cluster;
  std::size_t pool_bytes = 0;
};

Setup set_up(const WorkloadSpec& spec, const workload::RunOptions& options) {
  Setup s;
  s.sim = std::make_unique<sim::Simulator>();
  stores::ClusterConfig config;
  config.num_shards = spec.shards;
  config.store = workload::sized_store_config(options, spec.for_cleaning);
  s.pool_bytes = config.store.pool_bytes;
  s.cluster = stores::make_sharded_cluster(
      *s.sim, stores::SystemKind::kEFactory, std::move(config));
  return s;
}

/// Simulator first, so abandoned frames die while the stores they point
/// into are still alive; then the cluster.
void tear_down(Setup& s) {
  s.sim.reset();
  s.cluster = stores::ShardedCluster{};
}

Iteration run_iteration(const WorkloadSpec& spec,
                        const workload::RunOptions& options, SpanLog& spans) {
  Iteration it;
  SpanLog::Scope whole(spans, "iteration");
  const Clock::time_point t0 = Clock::now();
  Setup s;
  {
    SpanLog::Scope span(spans, "setup");
    s = set_up(spec, options);
  }
  const Clock::time_point t1 = Clock::now();
  const double cpu1 = thread_cpu_seconds();
  {
    SpanLog::Scope span(spans, "run_workload");
    it.result = workload::run_workload(*s.sim, s.cluster, options);
  }
  it.run_cpu_s = thread_cpu_seconds() - cpu1;
  const Clock::time_point t2 = Clock::now();
  {
    SpanLog::Scope span(spans, "read_back");
    const workload::Workload workload{options.workload};
    std::unique_ptr<stores::KvClient> client = s.cluster.make_client();
    bool done = false;
    s.sim->spawn(read_back(*client, workload, options.workload.key_count,
                           options.workload.value_len,
                           &it.out.readback_misses, &done));
    while (!done) s.sim->run_until(s.sim->now() + timeconst::kMillisecond);
  }
  it.out.events = s.sim->events_processed();
  it.out.dispatch_hash = s.sim->dispatch_hash();
  {
    SpanLog::Scope span(spans, "teardown");
    tear_down(s);
  }
  using Sec = std::chrono::duration<double>;
  it.setup_s = Sec(t1 - t0).count();
  it.run_s = Sec(t2 - t1).count();
  it.wall_s = seconds_since(t0);
  it.pool_bytes = s.pool_bytes;

  const workload::RunResult& r = it.result;
  it.out.sim_mops = r.mops;
  it.out.span_ns = r.span_ns;
  it.out.ops = r.ops;
  it.out.puts = r.puts;
  it.out.gets = r.gets;
  it.out.put_failures = r.put_failures;
  it.out.get_failures = r.get_failures;
  it.out.put_sum = r.put_latency.sum();
  it.out.get_sum = r.get_latency.sum();
  return it;
}

// --------------------------------------------------------- percentiles

/// Percentile in microseconds, linearly interpolated inside the histogram
/// bucket that holds the rank. Histogram::percentile() returns the bucket
/// midpoint, which (buckets are 1/32 octave wide) reads identically across
/// seeds; interpolating by rank keeps the estimate continuous. The bucket's
/// rank range is found by probing percentile() at neighbouring ranks.
double percentile_us(const Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0.0;
  const auto at_rank = [&](std::uint64_t rank) {
    return h.percentile((static_cast<double>(rank) + 0.5) /
                        static_cast<double>(n));
  };
  const auto rank = std::min<std::uint64_t>(
      n - 1, static_cast<std::uint64_t>(q * static_cast<double>(n)));
  const std::uint64_t rep = at_rank(rank);
  if (rep < 64 || rep == h.min() || rep == h.max()) {
    return static_cast<double>(rep) / 1000.0;  // exact or clamped bucket
  }
  // Bucket bounds from its midpoint (see common/histogram.cpp layout).
  const int msb = 63 - std::countl_zero(rep);
  const std::uint64_t width = std::uint64_t{1} << (msb - 5);
  const double low = static_cast<double>(rep - width / 2);
  // First and last rank mapping to this bucket (binary search).
  std::uint64_t lo = 0, hi = rank;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi) / 2;
    if (at_rank(mid) < rep) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = rank;
  hi = n - 1;
  while (lo < hi) {
    const std::uint64_t mid = (lo + hi + 1) / 2;
    if (at_rank(mid) > rep) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const double frac = (static_cast<double>(rank - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return (low + frac * static_cast<double>(width)) / 1000.0;
}

// ------------------------------------------------------------ host facts

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

// ------------------------------------------------------------ microbenches

/// Run `body(reps)` (which does `reps` units of work) a few times and
/// return the median host nanoseconds per unit.
double ns_per_unit(std::size_t units, const std::function<void()>& body,
                   int samples = 5) {
  std::vector<double> per_unit;
  for (int i = 0; i < samples; ++i) {
    const Clock::time_point start = Clock::now();
    body();
    per_unit.push_back(seconds_since(start) * 1e9 /
                       static_cast<double>(units));
  }
  return median(per_unit);
}

sim::Task<void> delay_actor(sim::Simulator& sim, std::size_t id,
                            std::size_t iters) {
  // Mostly near-future delays plus one far (100 us) timer in 48, so the
  // heap fallback stays on the measured path.
  constexpr SimDuration kDelays[] = {0, 200, 900, 2100, 5300};
  for (std::size_t i = 0; i < iters; ++i) {
    const SimDuration d = (i + id) % 48 == 47 ? 100 * timeconst::kMicrosecond
                                              : kDelays[(i + id) % 5];
    co_await sim::delay(sim, d);
  }
}

/// sim: schedule + dispatch through Simulator (64 coroutine actors).
double bench_sim_event() {
  constexpr std::size_t kActors = 64, kIters = 4'000;
  std::uint64_t events = 0;
  const double ns = ns_per_unit(1, [&] {
    sim::Simulator sim;
    for (std::size_t a = 0; a < kActors; ++a) {
      sim.spawn(delay_actor(sim, a, kIters));
    }
    sim.run();
    events = sim.events_processed();
  });
  return ns / static_cast<double>(events);
}

rdma::FabricConfig quiet_fabric() {
  rdma::FabricConfig config;
  config.jitter_sigma = 0.0;
  return config;
}

/// Median host ns per operation of a coroutine loop doing `units`
/// operations on an already built simulator. `make_loop(done)` returns the
/// loop, which sets *done when it finishes; set-up stays outside the timing.
template <typename MakeLoop>
double ns_per_sim_op(sim::Simulator& sim, std::size_t units,
                     MakeLoop make_loop) {
  return ns_per_unit(units, [&] {
    bool done = false;
    sim.spawn(make_loop(&done));
    while (!done) sim.run_until(sim.now() + timeconst::kMillisecond);
  });
}

/// rdma: one 256 B QP READ, post to completion.
double bench_rdma_read() {
  constexpr std::size_t kReads = 20'000;
  sim::Simulator sim;
  nvm::Arena arena{sim, 1 * sizeconst::kMiB};
  rdma::Fabric fabric{quiet_fabric()};
  rdma::Node server{sim, &arena};
  rdma::QueuePair qp{sim, fabric, server, /*qp_id=*/1};
  const std::uint32_t rkey =
      server.register_mr(0, arena.size(), rdma::Access::kReadWrite);
  return ns_per_sim_op(sim, kReads, [&](bool* done) {
    return [](rdma::QueuePair& q, std::uint32_t key,
              bool* flag) -> sim::Task<void> {
      for (std::size_t i = 0; i < kReads; ++i) {
        const Expected<Bytes> got =
            co_await q.read(key, (i % 1024) * 256, 256);
        EFAC_CHECK(got.has_value());
      }
      *flag = true;
    }(qp, rkey, done);
  });
}

/// rpc: one rpc::Connection round trip to an echo worker (32 B args).
double bench_rpc_call() {
  constexpr std::size_t kCalls = 10'000;
  sim::Simulator sim;
  nvm::Arena arena{sim, 64 * sizeconst::kKiB};
  rdma::Fabric fabric{quiet_fabric()};
  rdma::Node server{sim, &arena};
  rpc::Directory directory;
  sim.spawn([](rdma::Node& node, rpc::Directory& dir) -> sim::Task<void> {
    for (;;) {
      rdma::InboundMessage msg = co_await node.recv_queue().pop();
      rpc::ParsedRequest req = rpc::parse_request(msg);
      rpc::Replier{dir, req.src_qp, req.call_id}.reply(std::move(req.args));
    }
  }(server, directory));
  rpc::Connection conn{sim, fabric, server, directory, 1};
  return ns_per_sim_op(sim, kCalls, [&](bool* done) {
    return [](rpc::Connection& c, bool* flag) -> sim::Task<void> {
      for (std::size_t i = 0; i < kCalls; ++i) {
        const Bytes reply = co_await c.call(1, Bytes(32, 0x5A));
        EFAC_CHECK(reply.size() == 32);
      }
      *flag = true;
    }(conn, done);
  });
}

/// nvm: construct + destroy an Arena, in ms per GiB of arena.
double bench_arena_construct() {
  constexpr std::size_t kBytes = 128 * sizeconst::kMiB;
  sim::Simulator sim;
  const double ns = ns_per_unit(1, [&] {
    const nvm::Arena arena{sim, kBytes};
    EFAC_CHECK(arena.size() == kBytes);
  });
  return ns / 1e6 * static_cast<double>(1024 * sizeconst::kMiB) /
         static_cast<double>(kBytes);
}

/// nvm: inbound DMA placement, per 64 B chunk (2 KB payloads).
double bench_dma_chunk() {
  constexpr std::size_t kPayload = 2048, kWrites = 20'000;
  constexpr std::size_t kSpan = 4 * sizeconst::kMiB;
  sim::Simulator sim;
  nvm::Arena arena{sim, kSpan};
  const Bytes data(kPayload, 0xA5);
  return ns_per_unit(kWrites * kPayload / nvm::Arena::kLine, [&] {
    for (std::size_t i = 0; i < kWrites; ++i) {
      arena.dma_write((i * kPayload) % kSpan, data, sim.now(), sim.now());
    }
  });
}

/// nvm: flush of dirty 2 KB ranges, per cache line.
double bench_flush_line() {
  constexpr std::size_t kLen = 2048, kFlushes = 20'000;
  constexpr std::size_t kSpan = 4 * sizeconst::kMiB;
  sim::Simulator sim;
  nvm::Arena arena{sim, kSpan};
  return ns_per_unit(kFlushes * kLen / nvm::Arena::kLine, [&] {
    for (std::size_t i = 0; i < kFlushes; ++i) {
      arena.flush((i * kLen) % kSpan, kLen);
    }
  });
}

/// checksum: dispatched crc32 over 2 KB buffers, per KiB.
double bench_crc() {
  constexpr std::size_t kLen = 2048, kReps = 50'000;
  Bytes buf(kLen);
  for (std::size_t i = 0; i < kLen; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::uint32_t acc = 0;
  const double ns = ns_per_unit(kReps * kLen / 1024, [&] {
    for (std::size_t i = 0; i < kReps; ++i) acc = checksum::crc32(buf, acc);
  });
  EFAC_CHECK(acc != 0x12345678u || ns >= 0.0);  // keep acc live
  return ns;
}

/// kv: encode one 2 KB object (key hash, seeded CRC, header, payload).
double bench_object_encode() {
  constexpr std::size_t kObjects = 20'000;
  const Bytes key(kKeyLen, 'k');
  const Bytes value(2048, 0x3C);
  std::size_t total = 0;
  const double ns = ns_per_unit(kObjects, [&] {
    for (std::size_t i = 0; i < kObjects; ++i) {
      kv::ObjectMeta meta;
      meta.klen = static_cast<std::uint32_t>(key.size());
      meta.vlen = static_cast<std::uint32_t>(value.size());
      meta.key_hash = kv::hash_key(key);
      meta.crc = kv::object_crc(meta.key_hash, meta.klen, meta.vlen, value);
      meta.write_time = i;
      Bytes object = kv::ObjectLayout::encode_header(meta);
      object.insert(object.end(), key.begin(), key.end());
      object.insert(object.end(), value.begin(), value.end());
      total += object.size();
    }
  });
  EFAC_CHECK(total > 0);
  return ns;
}

/// stores: one sync put or get on an idle one-client eFactory cluster.
double bench_client_op(std::size_t value_len) {
  constexpr std::size_t kOps = 4'000;
  workload::RunOptions options;
  options.workload.key_count = 256;
  options.workload.key_len = kKeyLen;
  options.workload.value_len = value_len;
  options.clients = 1;
  options.ops_per_client = 5 * kOps;  // pool sized for every sample
  sim::Simulator sim;
  stores::Cluster cluster =
      stores::make_cluster(sim, stores::SystemKind::kEFactory,
                           workload::sized_store_config(options));
  cluster.start();
  const std::unique_ptr<stores::KvClient> client = cluster.make_client();
  const workload::Workload workload{options.workload};
  return ns_per_sim_op(sim, kOps, [&](bool* done) {
    return [](stores::KvClient& c, const workload::Workload& w,
              bool* flag) -> sim::Task<void> {
      for (std::size_t i = 0; i < kOps / 2; ++i) {
        const std::uint64_t k = i % 256;
        const Status put = co_await c.put(w.key_at(k), w.value_for(k, i));
        EFAC_CHECK(put.is_ok());
        const Expected<Bytes> got = co_await c.get(w.key_at(k));
        EFAC_CHECK(got.has_value());
      }
      *flag = true;
    }(*client, workload, done);
  });
}

/// metrics: one metrics::Span open/close on an enabled Tracer.
double bench_span_close() {
  constexpr std::size_t kSpans = 200'000;
  sim::Simulator sim;
  metrics::MetricsRegistry registry;
  metrics::Tracer tracer{sim, registry};
  const double ns = ns_per_unit(kSpans, [&] {
    for (std::size_t i = 0; i < kSpans; ++i) {
      const metrics::Span span{tracer, "bench.span"};
    }
  });
  EFAC_CHECK(registry.find_histogram("span.bench.span") != nullptr);
  return ns;
}

// ----------------------------------------------------- per-layer counts

std::uint64_t counter(const metrics::MetricsRegistry& reg,
                      std::string_view name) {
  const metrics::Counter* c = reg.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

double hist_us(const metrics::MetricsRegistry& reg, std::string_view name,
               double q) {
  const Histogram* h = reg.find_histogram(name);
  return h == nullptr ? 0.0 : percentile_us(*h, q);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using MetricList = std::vector<Metric>;

void layer_counts(const Iteration& it, std::size_t shards, MetricList& m) {
  const metrics::MetricsRegistry& reg = it.result.metrics;
  const auto ops = static_cast<double>(it.result.ops);
  const auto per_op = [&](std::string_view name) {
    return ratio(static_cast<double>(counter(reg, name)), ops);
  };
  const auto add = [&](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };
  const double fast = static_cast<double>(counter(reg, "sim.events.fast_path"));
  const double heap =
      static_cast<double>(counter(reg, "sim.events.heap_fallback"));
  add("sim.events_per_op", ratio(fast + heap, ops), "1/op");
  add("sim.heap_fallback_share", ratio(heap, fast + heap), "ratio");
  add("rdma.reads_per_op", per_op("qp.reads"), "1/op");
  add("rdma.writes_per_op", per_op("qp.writes"), "1/op");
  add("rdma.sends_per_op", per_op("qp.sends"), "1/op");
  add("rdma.wire_bytes_per_op",
      per_op("qp.read_bytes") + per_op("qp.write_bytes") +
          per_op("qp.send_bytes"),
      "B/op");
  add("rpc.requests_per_op", per_op("server.requests"), "1/op");
  add("nvm.dma_bytes_per_op", per_op("arena.dma_bytes"), "B/op");
  add("nvm.flush_lines_per_op", per_op("arena.flushed_lines"), "1/op");
  add("nvm.pool_mib",
      static_cast<double>(it.pool_bytes) / static_cast<double>(sizeconst::kMiB),
      "MiB");
  const double hw = static_cast<double>(counter(reg, "crc.hw_bytes"));
  const double sw = static_cast<double>(counter(reg, "crc.sw_bytes"));
  add("crc.bytes_per_op", ratio(hw + sw, ops), "B/op");
  add("crc.hw_share", ratio(hw, hw + sw), "ratio");
  add("store.pure_read_share",
      ratio(static_cast<double>(counter(reg, "client.gets_pure_rdma")),
            static_cast<double>(counter(reg, "client.gets"))),
      "ratio");
  add("store.alloc_rpc_p50_us", hist_us(reg, "span.put.alloc_rpc", 0.5), "us");
  add("store.verify_lag_p50_us",
      hist_us(reg, "span.server.verify_to_flag", 0.5), "us");
  add("store.verify_lag_p99_us",
      hist_us(reg, "span.server.verify_to_flag", 0.99), "us");
  add("store.cleanings", static_cast<double>(counter(reg, "server.cleanings")),
      "count");
  add("store.cleaned_objects_per_put",
      ratio(static_cast<double>(counter(reg, "server.cleaned_objects")),
            static_cast<double>(it.result.puts)),
      "1/op");
  add("client.retries_per_op", per_op("client.retries"), "1/op");
  add("client.giveups", static_cast<double>(counter(reg, "client.giveups")),
      "count");
  double max_requests = 0.0, sum_requests = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    const double requests = static_cast<double>(
        shards == 1 ? counter(reg, "server.requests")
                    : counter(reg, "shard" + std::to_string(s) +
                                       "/server.requests"));
    max_requests = std::max(max_requests, requests);
    sum_requests += requests;
  }
  add("shard.request_imbalance",
      ratio(max_requests, sum_requests / static_cast<double>(shards)),
      "ratio");
  double span_closes = 0.0;
  for (const auto& h : reg.histograms()) {
    if (h.name.rfind("span.", 0) == 0) {
      span_closes += static_cast<double>(h.cell.count());
    }
  }
  add("metrics.span_closes_per_op", ratio(span_closes, ops), "1/op");
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  int min_iterations = 3;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: efac_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale <f>] "
               "[--min-iterations <n>] [--trace-out <file>]\nworkloads:",
               msg);
  for (const WorkloadSpec& spec : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(spec.name.size()),
                 spec.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value after a flag");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--scale") {
      args.scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--min-iterations") {
      args.min_iterations = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  if (find_workload(args.workload) == nullptr) usage("unknown workload");
  if (!(args.seconds > 0.0) || !(args.scale > 0.0) ||
      args.min_iterations < 1) {
    usage("--seconds, --scale and --min-iterations must be positive");
  }
  return args;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  const Clock::time_point origin = Clock::now();
  const WorkloadSpec& spec = *find_workload(args.workload);
  const workload::RunOptions options =
      run_options(spec, args.seed, args.scale);

  std::printf(
      "host: {\"cpu\": \"%s\", \"nproc\": %u, \"loadavg\": \"%s\", "
      "\"build_type\": \"%s\", \"optimized\": %s, \"crc_backend\": \"%s\"}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      load_average().c_str(), PERFBENCH_BUILD_TYPE,
      optimized_build() ? "true" : "false", checksum::crc32_backend());
  std::printf("workload: {\"name\": \"%s\", \"seed\": %llu, \"clients\": %zu, "
              "\"ops_per_client\": %zu, \"shards\": %zu, \"batch\": %zu, "
              "\"value_len\": %zu, \"for_cleaning\": %s}\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), options.clients,
              options.ops_per_client, spec.shards, spec.batch,
              spec.value_len, spec.for_cleaning ? "true" : "false");
  std::fflush(stdout);

  SpanLog spans{origin};
  std::vector<Iteration> untraced, traced;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::optional<VirtualOutputs> reference;
  std::vector<double> probes;
  std::string problems;

  const auto check = [&](const Iteration& it) {
    const VirtualOutputs& o = it.out;
    const std::uint64_t expected_ops = options.clients * options.ops_per_client;
    if (o.ops != o.puts + o.gets || o.ops != expected_ops) {
      correct = false;
      problems += "op count mismatch; ";
    }
    if (o.readback_misses != 0) {
      correct = false;
      problems += std::to_string(o.readback_misses) + " read-back misses; ";
    }
    if (!reference) {
      reference = o;
    } else if (!(*reference == o)) {
      correct = false;
      problems += "virtual outputs differ between iterations of one seed; ";
    }
    attempted += o.ops + options.workload.key_count;
    failed += o.put_failures + o.get_failures + o.readback_misses;
  };

  // Measured phase: whole iterations until the time is up (and at least
  // min_iterations). The traced run alternates traced and untraced
  // iterations so their difference is the tracing overhead.
  const Clock::time_point measure_start = Clock::now();
  for (int i = 0;; ++i) {
    const bool trace_this = args.trace && i % 2 == 1;
    spans.set_enabled(trace_this);
    spans.set_run(i);
    probes.push_back(probe_seconds());
    Iteration it = run_iteration(spec, options, spans);
    check(it);
    (trace_this ? traced : untraced).push_back(std::move(it));
    const int needed = args.trace ? 1 : args.min_iterations;
    const auto done = [&](const std::vector<Iteration>& v) {
      return static_cast<int>(v.size()) >= needed;
    };
    if (seconds_since(measure_start) >= args.seconds && done(untraced) &&
        (!args.trace || done(traced))) {
      break;
    }
  }

  const Iteration& first = untraced.front();
  // Host times below are in reference-host seconds: raw time scaled by
  // the host's speed during this run, as the probe measured it.
  const double host_scale = kProbeReferenceSeconds / median(probes);
  const workload::RunResult& r = first.result;
  const auto collect = [](const std::vector<Iteration>& v,
                          double Iteration::*field) {
    std::vector<double> out;
    for (const Iteration& it : v) out.push_back(it.*field);
    return out;
  };

  std::printf("virtual: {\"sim_mops\": %.17g, \"span_ns\": %llu, "
              "\"ops\": %llu, \"puts\": %llu, \"gets\": %llu, "
              "\"put_failures\": %llu, \"get_failures\": %llu, "
              "\"readback_misses\": %llu, \"events\": %llu, "
              "\"dispatch_hash\": \"%016llx\", "
              "\"put_samples\": %llu, \"get_samples\": %llu, "
              "\"put_p50_us\": %.6f, \"put_p99_us\": %.6f, "
              "\"get_p50_us\": %.6f, \"get_p99_us\": %.6f}\n",
              r.mops, static_cast<unsigned long long>(r.span_ns),
              static_cast<unsigned long long>(r.ops),
              static_cast<unsigned long long>(r.puts),
              static_cast<unsigned long long>(r.gets),
              static_cast<unsigned long long>(r.put_failures),
              static_cast<unsigned long long>(r.get_failures),
              static_cast<unsigned long long>(first.out.readback_misses),
              static_cast<unsigned long long>(first.out.events),
              static_cast<unsigned long long>(first.out.dispatch_hash),
              static_cast<unsigned long long>(r.put_latency.count()),
              static_cast<unsigned long long>(r.get_latency.count()),
              percentile_us(r.put_latency, 0.5),
              percentile_us(r.put_latency, 0.99),
              percentile_us(r.get_latency, 0.5),
              percentile_us(r.get_latency, 0.99));
  std::printf("iterations: {\"untraced\": %zu, \"traced\": %zu, "
              "\"run_s\": [",
              untraced.size(), traced.size());
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", untraced[i].run_s);
  }
  std::printf("], \"run_cpu_s\": [");
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    std::printf("%s%.4f", i == 0 ? "" : ", ", untraced[i].run_cpu_s);
  }
  std::printf("]}\n");

  MetricList metrics;
  const auto add = [&](std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  if (!args.trace) {
    // Host noise (other tenants of the machine) only ever adds time, so
    // the fastest iteration is the closest estimate of the program's own
    // cost; medians drift with the host's load (see README.md).
    const auto fastest = [&](double Iteration::*field) {
      const std::vector<double> v = collect(untraced, field);
      return *std::min_element(v.begin(), v.end());
    };
    // setup_s: the median of at least nine set-ups per run (more when
    // each is short), topped up with set-up-only repetitions.
    std::vector<double> setups = collect(untraced, &Iteration::setup_s);
    double setup_total = 0.0;
    for (const double t : setups) setup_total += t;
    while (setups.size() < 9 || (setup_total < 0.5 && setups.size() < 64)) {
      const Clock::time_point start = Clock::now();
      Setup s = set_up(spec, options);
      setups.push_back(seconds_since(start));
      setup_total += setups.back();
      tear_down(s);
    }
    const double kops =
        static_cast<double>(first.out.ops) / fastest(&Iteration::run_s) / 1e3;
    std::printf("host_raw: {\"host_kops\": %.4f, \"wall_s\": %.6f, "
                "\"setup_s\": %.6f, \"probe_s\": %.6f, \"scale\": %.4f}\n",
                kops, fastest(&Iteration::wall_s), median(setups),
                median(probes), host_scale);
    add("host_kops", kops / host_scale, "kops/s");
    add("wall_s", fastest(&Iteration::wall_s) * host_scale, "s");
    add("setup_s", median(setups) * host_scale, "s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
    add("sim_mops", r.mops, "Mops/s");
    add("put_p50_us", percentile_us(r.put_latency, 0.5), "us");
    add("put_p99_us", percentile_us(r.put_latency, 0.99), "us");
    add("get_p50_us", percentile_us(r.get_latency, 0.5), "us");
    add("get_p99_us", percentile_us(r.get_latency, 0.99), "us");
    add("ok_op_share",
        1.0 - ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
        "ratio");
  } else {
    spans.set_enabled(true);
    spans.set_run(-1);
    layer_counts(first, spec.shards, metrics);
    const auto samples = [&](std::string_view name) {
      const Histogram* h = r.metrics.find_histogram(name);
      return static_cast<unsigned long long>(h == nullptr ? 0 : h->count());
    };
    std::printf("per_layer_samples: {\"span.put.alloc_rpc\": %llu, "
                "\"span.server.verify_to_flag\": %llu}\n",
                samples("span.put.alloc_rpc"),
                samples("span.server.verify_to_flag"));
    const auto micro = [&](const char* name, const std::function<double()>& f) {
      const SpanLog::Scope span(spans, name);
      return f() * host_scale;
    };
    add("sim.host_ns_per_event", micro("micro.sim", bench_sim_event), "ns");
    add("rdma.host_ns_per_read", micro("micro.rdma", bench_rdma_read), "ns");
    add("rpc.host_ns_per_call", micro("micro.rpc", bench_rpc_call), "ns");
    add("nvm.host_ms_per_gib", micro("micro.nvm.arena", bench_arena_construct),
        "ms/GiB");
    add("nvm.host_ns_per_dma_chunk", micro("micro.nvm.dma", bench_dma_chunk),
        "ns");
    add("nvm.host_ns_per_flush_line",
        micro("micro.nvm.flush", bench_flush_line), "ns");
    add("crc.host_ns_per_kib", micro("micro.crc", bench_crc), "ns/KiB");
    add("kv.host_ns_per_object_2KB", micro("micro.kv", bench_object_encode),
        "ns");
    add("client.host_ns_per_op",
        micro("micro.client",
              [&] { return bench_client_op(spec.value_len); }),
        "ns");
    add("metrics.host_ns_per_span_close",
        micro("micro.metrics", bench_span_close), "ns");
    add("bench.trace_overhead_share",
        median(collect(traced, &Iteration::wall_s)) /
                median(collect(untraced, &Iteration::wall_s)) -
            1.0,
        "ratio");
    if (!args.trace_out.empty()) spans.write_json(args.trace_out);
  }

  if (!correct) std::fprintf(stderr, "CHECK FAILED: %s\n", problems.c_str());
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace efac::perfbench

int main(int argc, char** argv) {
  return efac::perfbench::run(efac::perfbench::parse_args(argc, argv));
}
