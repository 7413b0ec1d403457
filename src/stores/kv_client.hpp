// Abstract client interface every system implements.
//
// Clients are simulation actors: put()/get() are coroutines whose elapsed
// virtual time is the operation latency. Size hints mirror what published
// RDMA-KV prototypes do — clients know the (fixed) object geometry of the
// workload, which lets one-sided GETs read exactly the right span.
//
// The public surface has three tiers, all funnelled through ONE shared
// retry/trace/metrics engine (run_op):
//
//   * sync      — put/get/del: trivial wrappers that co_await the engine
//                 directly (zero extra scheduler events vs. the engine
//                 alone, so single-op schedules are bit-identical to the
//                 pre-async design);
//   * async     — put_async/get_async/del_async return lightweight
//                 OpHandles; completions are awaited out of order with
//                 await_status/await_value. In-flight ops are bounded by
//                 ClientOptions::max_inflight (FIFO window semaphore);
//   * batched   — put_batch/get_batch: systems with a batch-reserve alloc
//                 path (eFactory, IMM, Erda) issue ONE shared alloc RPC
//                 for the whole batch and doorbell-coalesce the one-sided
//                 writes; everything else pipelines the ops through the
//                 async window. Per-op statuses are returned either way,
//                 and transiently-failed batch members re-enter the
//                 normal per-op retry tail.
//
// Construction takes a ClientOptions struct (not bool parameters), so new
// knobs compose without multiplying factory overloads. Every client owns a
// MetricsRegistry: its operation counters ("client.*"), its QP's verb
// counters ("qp.*") and its tracer's span histograms ("span.*") all land
// there, keeping per-client assertions exact and letting benches merge
// whole clients into a process-wide export.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/checker.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "metrics/metrics.hpp"
#include "metrics/telemetry.hpp"
#include "metrics/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "stores/adaptive.hpp"
#include "stores/retry.hpp"
#include "trace/event_log.hpp"

namespace efac::stores {

/// How GETs are served.
enum class ReadMode {
  /// The system's natural read protocol (hybrid for eFactory, one-sided
  /// for SAW/IMM/Erda/..., RPC for Forca/RPC).
  kDefault,
  /// Force the hybrid one-sided-first + RPC-fallback protocol.
  kHybrid,
  /// Force every GET through the RPC path (the paper's "w/o hr" ablation).
  kRpcOnly,
};

constexpr const char* to_string(ReadMode mode) noexcept {
  switch (mode) {
    case ReadMode::kDefault: return "default";
    case ReadMode::kHybrid: return "hybrid";
    case ReadMode::kRpcOnly: return "rpc-only";
  }
  return "unknown";
}

/// Fixed object geometry of the workload, used to size one-sided reads.
/// Zero means "unknown": systems that need the hint fall back to their
/// RPC read path.
struct SizeHint {
  std::size_t klen = 0;
  std::size_t vlen = 0;
};

/// Knobs for constructing a client. Passed to every make_client factory
/// and to Cluster::make_client; extend this struct instead of adding bool
/// parameters.
struct ClientOptions {
  ReadMode read_mode = ReadMode::kDefault;
  /// Record per-phase span histograms on this client's tracer.
  bool collect_traces = true;
  /// Retry/backoff behaviour of the public operations. The default
  /// (single attempt, no RPC timeout) is a pass-through.
  RetryPolicy retry;
  /// Object geometry for one-sided reads.
  SizeHint size_hint;
  /// Upper bound on concurrently in-flight async operations (put_async /
  /// get_async / del_async and the pipelined batch paths). Submissions
  /// beyond the window queue FIFO on the window semaphore. Sync
  /// put/get/del bypass the window entirely.
  std::size_t max_inflight = 16;
  /// Adaptive hybrid-read tuning (eFactory GETs; see stores/adaptive.hpp
  /// and docs/ADAPTIVE_READ.md). Disabled by default: the read path, the
  /// wire format and the dispatch schedule stay bit-identical to the
  /// non-adaptive client.
  AdaptiveReadOptions adaptive;
};

/// Cross-cutting observability hookup for a client, gathered in one
/// struct so a new subsystem extends the struct instead of adding yet
/// another required-before-first-op setter.
struct ClusterWiring {
  analysis::Checker* checker = nullptr;  ///< conflict sanitizer (optional)
  trace::EventLog* trace_log = nullptr;  ///< flight recorder (optional)
  metrics::TelemetrySampler* telemetry = nullptr;  ///< sampler (optional)
};

/// Snapshot of a client's operation counters (view over the registry).
struct ClientStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  /// GETs resolved purely with one-sided reads (no server involvement).
  std::uint64_t gets_pure_rdma = 0;
  /// GETs that needed the RPC+RDMA fallback (flag unset, entry miss,
  /// log cleaning in progress, or the system always uses RPC reads).
  std::uint64_t gets_rpc_path = 0;
  /// Client-side re-reads of an older version (Erda CRC failure path).
  std::uint64_t version_rereads = 0;
  /// Client-side CRC verifications performed (Erda read path).
  std::uint64_t client_crc_checks = 0;
  /// Attempts beyond the first made by the retry engine.
  std::uint64_t retries = 0;
  /// Operations abandoned after exhausting the retry budget.
  std::uint64_t giveups = 0;
  /// put_batch/get_batch submissions (batches, not member ops).
  std::uint64_t batches = 0;
};

class KvClient {
 public:
  // A client can die while the simulation runs on (run_workload drops its
  // clients mid-run); withdrawing the probes here keeps the sampler from
  // polling freed state afterwards.
  virtual ~KvClient() {
    if (telemetry_ != nullptr) telemetry_->drop_sources(this);
  }
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Lightweight handle to an asynchronously submitted operation. Redeem
  /// with await_status (PUT/DEL) or await_value (GET) — exactly once, in
  /// any order relative to other handles.
  struct OpHandle {
    std::uint64_t id = 0;
    trace::OpKind kind = trace::OpKind::kPut;

    [[nodiscard]] bool valid() const noexcept { return id != 0; }
  };

  /// One PUT of a batch submission.
  struct PutOp {
    Bytes key;
    Bytes value;
  };

  // ---- synchronous surface ----------------------------------------------
  // Trivial wrappers over the shared engine: retry (transient failures —
  // kTimeout, kUnavailable — up to the attempt budget with capped
  // exponential backoff + seeded jitter), tracing and metrics live in
  // run_op only. With the default single-attempt policy the engine
  // delegates directly (no RNG draws, no extra events).

  /// Durable-or-consistent PUT per the semantics of the concrete system.
  sim::Task<Status> put(Bytes key, Bytes value) {
    co_return co_await run_op<Status>(
        trace::OpKind::kPut, "put", [this, &key, &value](bool may_move) {
          return may_move ? put_attempt(std::move(key), std::move(value))
                          : put_attempt(key, value);
        });
  }

  /// GET; returns the value bytes.
  sim::Task<Expected<Bytes>> get(Bytes key) {
    co_return co_await run_op<Expected<Bytes>>(
        trace::OpKind::kGet, "get", [this, &key](bool may_move) {
          return may_move ? get_attempt(std::move(key)) : get_attempt(key);
        });
  }

  /// DELETE. Log-structured systems append a tombstone version whose
  /// space is reclaimed by log cleaning. Unsupported systems return
  /// kUnimplemented (never retried).
  sim::Task<Status> del(Bytes key) {
    co_return co_await run_op<Status>(
        trace::OpKind::kDel, "del", [this, &key](bool may_move) {
          return may_move ? del_attempt(std::move(key)) : del_attempt(key);
        });
  }

  // ---- asynchronous surface ---------------------------------------------
  // Submission spawns a detached driver that (1) acquires a window permit,
  // (2) runs the same engine as the sync surface, (3) publishes the result
  // and opens the handle's gate. Completions may be awaited out of order;
  // each handle must be redeemed exactly once.

  OpHandle put_async(Bytes key, Bytes value) {
    const OpHandle handle = make_pending(trace::OpKind::kPut);
    sim_.spawn(put_driver(handle.id, std::move(key), std::move(value)));
    return handle;
  }

  OpHandle get_async(Bytes key) {
    const OpHandle handle = make_pending(trace::OpKind::kGet);
    sim_.spawn(get_driver(handle.id, std::move(key)));
    return handle;
  }

  OpHandle del_async(Bytes key) {
    const OpHandle handle = make_pending(trace::OpKind::kDel);
    sim_.spawn(del_driver(handle.id, std::move(key)));
    return handle;
  }

  /// Redeem a PUT/DEL handle. Suspends until the op completes (no event
  /// if it already has), then releases the slot.
  sim::Task<Status> await_status(OpHandle handle) {
    PendingOp* op = find_pending(handle.id);
    EFAC_CHECK_MSG(op != nullptr,
                   "await_status: unknown or already-redeemed op handle");
    co_await op->done.wait();
    EFAC_CHECK_MSG(op->status.has_value(),
                   "await_status on a GET handle — use await_value");
    Status out = std::move(*op->status);
    pending_.erase(handle.id);
    co_return out;
  }

  /// Redeem a GET handle.
  sim::Task<Expected<Bytes>> await_value(OpHandle handle) {
    PendingOp* op = find_pending(handle.id);
    EFAC_CHECK_MSG(op != nullptr,
                   "await_value: unknown or already-redeemed op handle");
    co_await op->done.wait();
    EFAC_CHECK_MSG(op->value.has_value(),
                   "await_value on a PUT/DEL handle — use await_status");
    Expected<Bytes> out = std::move(*op->value);
    pending_.erase(handle.id);
    co_return out;
  }

  /// Ops currently between window acquisition and completion.
  [[nodiscard]] std::size_t inflight() const noexcept { return inflight_; }
  /// High-water mark of inflight() over this client's lifetime.
  [[nodiscard]] std::size_t inflight_peak() const noexcept {
    return inflight_peak_;
  }

  // ---- batched surface --------------------------------------------------

  /// Vector PUT. Systems with a batch-reserve alloc path (eFactory, IMM,
  /// Erda) run the whole batch as one shared attempt: a single kAllocBatch
  /// RPC reserves log space for every member, and the one-sided payload
  /// writes go out as one doorbell-coalesced burst. Everything else
  /// pipelines the members through the async window. Per-op statuses come
  /// back in submission order; members that failed the shared attempt
  /// transiently re-enter the normal per-op retry tail (the shared
  /// attempt counts as attempt 1).
  sim::Task<std::vector<Status>> put_batch(std::vector<PutOp> ops) {
    ++stats_.batches;
    if (ops.empty()) co_return std::vector<Status>{};
    if (!has_batch_put() || ops.size() < 2) {
      co_return co_await put_batch_pipelined(std::move(ops));
    }
    switch_to("put_batch");
    // Every member gets its own causal op id; the batch's shared verbs
    // (the alloc RPC, the burst head) are attributed to the lead op.
    std::vector<std::uint32_t> op_ids(ops.size(), 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      op_ids[i] = recorder_.begin_op_id(trace::OpKind::kPut);
    }
    recorder_.set_current(op_ids[0]);
    std::vector<Status> out = co_await put_batch_attempt(ops, op_ids);
    EFAC_CHECK_MSG(out.size() == ops.size(),
                   "put_batch_attempt must return one status per op");
    const RetryPolicy& policy = options_.retry;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (policy.enabled() && !out[i].is_ok() &&
          RetryPolicy::retryable(out[i].code())) {
        recorder_.set_current(op_ids[i]);
        out[i] = co_await put_retry_tail(std::move(ops[i]), out[i]);
      }
      recorder_.end_op_id(op_ids[i], trace::OpKind::kPut,
                          static_cast<std::uint64_t>(out[i].code()));
    }
    recorder_.set_current(0);
    co_return out;
  }

  /// Vector GET: pipelined async GETs under the in-flight window. Reads
  /// have no alloc RPC to amortize, so batching buys pipelining, not a
  /// shared server round trip.
  sim::Task<std::vector<Expected<Bytes>>> get_batch(std::vector<Bytes> keys) {
    ++stats_.batches;
    std::vector<OpHandle> handles;
    handles.reserve(keys.size());
    for (Bytes& key : keys) handles.push_back(get_async(std::move(key)));
    std::vector<Expected<Bytes>> out;
    out.reserve(handles.size());
    for (const OpHandle& handle : handles) {
      out.push_back(co_await await_value(handle));
    }
    co_return out;
  }

  // ---- routed-attempt surface -------------------------------------------
  // Single tries of the concrete protocol, exposed for routing wrappers
  // (ShardedKvClient): the WRAPPER's run_op owns retry/trace/metrics, so
  // these must not enter a second engine. Each call switches into this
  // client's sanitizer clock domain and issues exactly one protocol
  // attempt — protocol-side counters (client.puts, qp.*, span.*) land on
  // this client; engine counters (retries, giveups) land on the wrapper.

  sim::Task<Status> attempt_put(Bytes key, Bytes value) {
    switch_to("put");
    return put_attempt(std::move(key), std::move(value));
  }
  sim::Task<Expected<Bytes>> attempt_get(Bytes key) {
    switch_to("get");
    return get_attempt(std::move(key));
  }
  sim::Task<Status> attempt_del(Bytes key) {
    switch_to("del");
    return del_attempt(std::move(key));
  }
  /// Whether attempt_put_batch runs a true batch-reserve path (vs. the
  /// sequential per-member default).
  [[nodiscard]] bool supports_batch_put() const noexcept {
    return has_batch_put();
  }
  /// One shared try of a whole (sub-)batch; same contract as
  /// put_batch_attempt. `ops` must stay alive and unmoved so the caller
  /// can re-drive failed members through its retry tail.
  sim::Task<std::vector<Status>> attempt_put_batch(
      std::vector<PutOp>& ops, const std::vector<std::uint32_t>& op_ids) {
    switch_to("put_batch");
    return put_batch_attempt(ops, op_ids);
  }

  // ---- configuration / wiring -------------------------------------------

  /// Virtual so routing wrappers (ShardedKvClient) can aggregate their
  /// per-shard protocol clients into one view.
  [[nodiscard]] virtual ClientStats stats() const noexcept {
    return ClientStats{stats_.puts,          stats_.gets,
                       stats_.gets_pure_rdma, stats_.gets_rpc_path,
                       stats_.version_rereads, stats_.client_crc_checks,
                       stats_.retries,        stats_.giveups,
                       stats_.batches};
  }

  /// Merge this client's registry (client.*/qp.*/span.* instruments) into
  /// `into` under `prefix`. Virtual for the same reason as stats(): a
  /// routing wrapper owns one registry per shard and must contribute all
  /// of them, so harnesses call this instead of merging metrics()
  /// directly.
  virtual void merge_metrics_into(metrics::MetricsRegistry& into,
                                  std::string_view prefix) const {
    into.merge_from(metrics_, prefix);
  }

  [[nodiscard]] const ClientOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] metrics::MetricsRegistry& metrics() noexcept {
    return metrics_;
  }
  [[nodiscard]] const metrics::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] metrics::Tracer& tracer() noexcept { return tracer_; }

  /// Wire this client to the cluster's cross-cutting subsystems. Call
  /// once, before issuing operations; a client never attached runs as the
  /// untracked external actor with recording off.
  ///
  /// The checker registers this client as its own clock domain with the
  /// conflict sanitizer. The trace log makes it a flight-recorder track
  /// (tracks are named in attach order, which is deterministic); with a
  /// null log every emission the client ever makes stays a single branch.
  /// The recorder runs op-scoped so overlapping async ops attribute their
  /// events to the op whose coroutine is actually running.
  void attach(const ClusterWiring& wiring) {
    checker_ = wiring.checker;
    if (checker_ != nullptr) actor_id_ = checker_->register_client_actor();
    if (trace::EventLog* log = wiring.trace_log; log != nullptr) {
      recorder_.attach(log,
                       "client-" + std::to_string(log->tracks().size()));
      recorder_.op_scoped = true;
    }
    attach_telemetry(wiring.telemetry);
  }

  /// Register this client's load-bearing signals with the cluster's
  /// telemetry sampler (no-op with a null sampler). Per-client counters
  /// feed SHARED series ("client.retries" sums deltas over every attached
  /// client), so cluster-level rates come out of one timeline; the
  /// in-flight window occupancy is polled as a gauge.
  void attach_telemetry(metrics::TelemetrySampler* telemetry) {
    telemetry_ = telemetry;
    if (telemetry_ == nullptr) return;
    telemetry_->add_counter_source(this, "client.puts", stats_.puts);
    telemetry_->add_counter_source(this, "client.gets", stats_.gets);
    telemetry_->add_counter_source(this, "client.retries", stats_.retries);
    telemetry_->add_counter_source(this, "client.giveups", stats_.giveups);
    telemetry_->add_counter_source(this, "client.gets_rpc_path",
                                   stats_.gets_rpc_path);
    // Adaptive hybrid-read signals (get-or-create: zero series for
    // non-adaptive clients, which keeps shard exports shape-stable).
    for (const char* name :
         {"read.adaptive.hedges", "read.adaptive.hedges_wasted",
          "read.adaptive.spec_pairs", "read.adaptive.rpc_first"}) {
      telemetry_->add_counter_source(this, name, metrics_.counter(name));
    }
    telemetry_->add_gauge_probe(this, "client.inflight", [this] {
      return static_cast<double>(inflight_);
    });
  }

  /// This client's sanitizer handle (nullptr when analysis is off).
  [[nodiscard]] analysis::Checker* checker() const noexcept {
    return checker_;
  }

 protected:
  KvClient(sim::Simulator& sim, ClientOptions options)
      : klen_hint_(options.size_hint.klen),
        vlen_hint_(options.size_hint.vlen),
        sim_(sim),
        options_(options),
        tracer_(sim, metrics_, options.collect_traces),
        window_(sim, std::max<std::size_t>(std::size_t{1},
                                           options.max_inflight)) {}

  /// One try of the operation, per the concrete system's protocol.
  virtual sim::Task<Status> put_attempt(Bytes key, Bytes value) = 0;
  virtual sim::Task<Expected<Bytes>> get_attempt(Bytes key) = 0;
  virtual sim::Task<Status> del_attempt(Bytes key) {
    static_cast<void>(key);
    co_return Status{StatusCode::kUnimplemented,
                     "delete not supported by this system"};
  }

  /// Whether this system implements a true batch-reserve PUT path (one
  /// shared alloc RPC + doorbell-coalesced writes). When false, put_batch
  /// pipelines members through the async window instead.
  [[nodiscard]] virtual bool has_batch_put() const noexcept { return false; }

  /// One try of a whole batch: must return one status per op, in order.
  /// `op_ids` are the members' causal op ids — implementations re-point
  /// recorder attribution (set_current) as they move from member to
  /// member so coalesced verbs stay per-op attributable. The default
  /// (unused unless has_batch_put() is overridden alone) runs the members
  /// sequentially through the single-op attempt.
  virtual sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>& ops, const std::vector<std::uint32_t>& op_ids) {
    std::vector<Status> out;
    out.reserve(ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      recorder_.set_current(op_ids[i]);
      out.push_back(co_await put_attempt(ops[i].key, ops[i].value));
    }
    co_return out;
  }

  /// Registry-backed counters; field names mirror ClientStats so existing
  /// `++stats_.gets` sites read identically.
  struct Counters {
    explicit Counters(metrics::MetricsRegistry& r)
        : puts(r.counter("client.puts")),
          gets(r.counter("client.gets")),
          gets_pure_rdma(r.counter("client.gets_pure_rdma")),
          gets_rpc_path(r.counter("client.gets_rpc_path")),
          version_rereads(r.counter("client.version_rereads")),
          client_crc_checks(r.counter("client.client_crc_checks")),
          retries(r.counter("client.retries")),
          giveups(r.counter("client.giveups")),
          batches(r.counter("client.batches")) {}
    metrics::Counter& puts;
    metrics::Counter& gets;
    metrics::Counter& gets_pure_rdma;
    metrics::Counter& gets_rpc_path;
    metrics::Counter& version_rereads;
    metrics::Counter& client_crc_checks;
    metrics::Counter& retries;
    metrics::Counter& giveups;
    metrics::Counter& batches;
  };

  /// Enter this client's clock domain, labelling the operation for
  /// reports. Set-only: event attribution keeps the actor current across
  /// suspensions, and the caller (the harness) is the untracked actor 0.
  void switch_to(const char* label) noexcept {
    if (checker_ != nullptr) checker_->switch_to(actor_id_, label);
  }

  /// Shared tail of the retry engine: record the re-issue and the backoff
  /// window on the flight recorder, then sleep. The jitter draw happens
  /// here either way, so the RNG stream is identical with recording off.
  sim::Task<void> backoff(int attempt, StatusCode last) {
    recorder_.emit(trace::EventType::kRetry, 0,
                   static_cast<std::uint64_t>(attempt),
                   static_cast<std::uint64_t>(last));
    const SimDuration wait = options_.retry.backoff(attempt, retry_rng_);
    recorder_.emit(trace::EventType::kBackoff, 0,
                   static_cast<std::uint64_t>(wait),
                   static_cast<std::uint64_t>(attempt));
    co_await sim::delay(sim_, wait);
  }

 private:
  static bool op_ok(const Status& s) noexcept { return s.is_ok(); }
  template <typename T>
  static bool op_ok(const Expected<T>& e) noexcept { return e.has_value(); }
  static StatusCode code_of(const Status& s) noexcept { return s.code(); }
  template <typename T>
  static StatusCode code_of(const Expected<T>& e) noexcept {
    return e.code();
  }

  /// THE retry/trace/metrics engine. Every public operation — sync,
  /// async, batch retry tail — funnels through here, so policy changes
  /// happen in one place. `attempt(may_move)` issues one try; may_move is
  /// true only when no later attempt could reuse the operands. Awaiting
  /// the returned task is pure symmetric transfer (no scheduler events),
  /// which is what lets the sync wrappers delegate without perturbing the
  /// dispatch schedule.
  template <typename Result, typename Fn>
  sim::Task<Result> run_op(trace::OpKind kind, const char* label,
                           Fn attempt) {
    switch_to(label);
    recorder_.begin_op(kind);
    const RetryPolicy& policy = options_.retry;
    if (!policy.enabled()) {
      Result result = co_await attempt(/*may_move=*/true);
      recorder_.end_op(kind, static_cast<std::uint64_t>(code_of(result)));
      co_return result;
    }
    for (int attempt_no = 1;; ++attempt_no) {
      Result result = co_await attempt(/*may_move=*/false);
      if (op_ok(result) || !RetryPolicy::retryable(code_of(result))) {
        recorder_.end_op(kind, static_cast<std::uint64_t>(code_of(result)));
        co_return result;
      }
      if (attempt_no >= policy.max_attempts) {
        ++stats_.giveups;
        recorder_.end_op(kind, static_cast<std::uint64_t>(code_of(result)));
        co_return result;
      }
      ++stats_.retries;
      co_await backoff(attempt_no, code_of(result));
    }
  }

  /// Completion slot for one async op. The Gate broadcasts, so redeeming
  /// after completion costs no event; exactly one of status/value is set.
  struct PendingOp {
    explicit PendingOp(sim::Simulator& sim) : done(sim) {}
    sim::Gate done;
    std::optional<Status> status;
    std::optional<Expected<Bytes>> value;
  };

  OpHandle make_pending(trace::OpKind kind) {
    const std::uint64_t id = ++last_async_id_;
    pending_.emplace(id, std::make_unique<PendingOp>(sim_));
    return OpHandle{id, kind};
  }

  [[nodiscard]] PendingOp* find_pending(std::uint64_t id) noexcept {
    const auto it = pending_.find(id);
    return it == pending_.end() ? nullptr : it->second.get();
  }

  void inflight_enter() noexcept {
    ++inflight_;
    if (inflight_ > inflight_peak_) {
      inflight_peak_ = inflight_;
      inflight_peak_gauge_.set(static_cast<double>(inflight_peak_));
    }
  }
  void inflight_exit() noexcept { --inflight_; }

  sim::Task<void> put_driver(std::uint64_t id, Bytes key, Bytes value) {
    sim::SemaphoreLock permit =
        co_await sim::SemaphoreLock::acquire(window_);
    inflight_enter();
    Status result = co_await run_op<Status>(
        trace::OpKind::kPut, "put", [this, &key, &value](bool may_move) {
          return may_move ? put_attempt(std::move(key), std::move(value))
                          : put_attempt(key, value);
        });
    inflight_exit();
    permit.reset();
    if (PendingOp* op = find_pending(id)) {
      op->status.emplace(std::move(result));
      op->done.open();
    }
  }

  sim::Task<void> get_driver(std::uint64_t id, Bytes key) {
    sim::SemaphoreLock permit =
        co_await sim::SemaphoreLock::acquire(window_);
    inflight_enter();
    Expected<Bytes> result = co_await run_op<Expected<Bytes>>(
        trace::OpKind::kGet, "get", [this, &key](bool may_move) {
          return may_move ? get_attempt(std::move(key)) : get_attempt(key);
        });
    inflight_exit();
    permit.reset();
    if (PendingOp* op = find_pending(id)) {
      op->value.emplace(std::move(result));
      op->done.open();
    }
  }

  sim::Task<void> del_driver(std::uint64_t id, Bytes key) {
    sim::SemaphoreLock permit =
        co_await sim::SemaphoreLock::acquire(window_);
    inflight_enter();
    Status result = co_await run_op<Status>(
        trace::OpKind::kDel, "del", [this, &key](bool may_move) {
          return may_move ? del_attempt(std::move(key)) : del_attempt(key);
        });
    inflight_exit();
    permit.reset();
    if (PendingOp* op = find_pending(id)) {
      op->status.emplace(std::move(result));
      op->done.open();
    }
  }

  /// Fallback batch PUT: submit every member through the async window and
  /// redeem in order. Each member gets the full engine treatment (its own
  /// begin/end, retries) inside its driver.
  sim::Task<std::vector<Status>> put_batch_pipelined(
      std::vector<PutOp> ops) {
    std::vector<OpHandle> handles;
    handles.reserve(ops.size());
    for (PutOp& op : ops) {
      handles.push_back(put_async(std::move(op.key), std::move(op.value)));
    }
    std::vector<Status> out;
    out.reserve(handles.size());
    for (const OpHandle& handle : handles) {
      out.push_back(co_await await_status(handle));
    }
    co_return out;
  }

  /// Attempts 2..max for one batch member whose shared attempt failed
  /// transiently (the shared attempt was attempt 1, so this enters at the
  /// first backoff). Caller re-points recorder attribution beforehand.
  sim::Task<Status> put_retry_tail(PutOp op, Status first) {
    const RetryPolicy& policy = options_.retry;
    Status status = std::move(first);
    for (int attempt_no = 1;; ++attempt_no) {
      if (attempt_no >= policy.max_attempts) {
        ++stats_.giveups;
        co_return status;
      }
      ++stats_.retries;
      co_await backoff(attempt_no, status.code());
      status = co_await put_attempt(op.key, op.value);
      if (status.is_ok() || !RetryPolicy::retryable(status.code())) {
        co_return status;
      }
    }
  }

 protected:
  std::size_t klen_hint_ = 0;
  std::size_t vlen_hint_ = 0;
  analysis::Checker* checker_ = nullptr;
  std::uint32_t actor_id_ = 0;
  sim::Simulator& sim_;
  ClientOptions options_;
  metrics::MetricsRegistry metrics_;
  Counters stats_{metrics_};
  metrics::Tracer tracer_;
  /// Flight-recorder handle; detached (one-branch no-op) unless the
  /// cluster was built with tracing on and the client was attach()ed.
  /// Subclass QPs/Connections borrow &recorder_ so their verb events carry
  /// this client's current op id.
  trace::Recorder recorder_;
  /// Telemetry sampler this client's probes are registered with (null when
  /// telemetry is off or the client was never attach()ed).
  metrics::TelemetrySampler* telemetry_ = nullptr;
  /// Jitter stream for retry backoff (deterministic per client).
  Rng retry_rng_{options_.retry.seed};

 private:
  /// Bounded in-flight window for the async surface (FIFO, no barging).
  sim::Semaphore window_;
  std::unordered_map<std::uint64_t, std::unique_ptr<PendingOp>> pending_;
  std::uint64_t last_async_id_ = 0;
  std::size_t inflight_ = 0;
  std::size_t inflight_peak_ = 0;
  metrics::Gauge& inflight_peak_gauge_{metrics_.gauge("client.inflight_peak")};
};

}  // namespace efac::stores
