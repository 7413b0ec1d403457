// Common chassis for every simulated store cluster.
//
// A Store owns the whole single-server "cluster": the NVM arena, the
// fabric, the server node, the RPC directory, the data pool(s), and the
// server worker coroutines. Concrete systems subclass it with their
// request handlers and read/write protocols, exactly mirroring the paper's
// "all implementations on the same code base" methodology.
//
// Arena layout:
//
//   [0, hash_bytes)                   index region (HashDir / ErdaTable)
//   [pool_a_base, +pool_bytes)        data pool A (working pool)
//   [pool_b_base, +pool_bytes)        data pool B (eFactory log cleaning)
//
// Arena offset 0 is inside the index region, so 0 serves as the null
// object pointer throughout.
#pragma once

#include <memory>
#include <vector>

#include "analysis/checker.hpp"
#include "common/contracts.hpp"
#include "common/status.hpp"
#include "fault/fault.hpp"
#include "kv/data_pool.hpp"
#include "kv/object.hpp"
#include "metrics/metrics.hpp"
#include "metrics/telemetry.hpp"
#include "metrics/trace.hpp"
#include "nvm/arena.hpp"
#include "rdma/fabric.hpp"
#include "rdma/node.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/config.hpp"
#include "stores/kv_client.hpp"
#include "stores/wire.hpp"
#include "trace/event_log.hpp"

namespace efac::stores {

/// Snapshot of a store's server-side counters (view over the registry).
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t allocs = 0;
  std::uint64_t persists = 0;          ///< explicit flush operations
  std::uint64_t crc_checks = 0;        ///< server-side verifications
  std::uint64_t bg_verified = 0;       ///< background thread: objects flagged
  std::uint64_t bg_timeouts = 0;       ///< background thread: invalidated
  std::uint64_t get_durability_hits = 0;  ///< RPC GET found flag already set
  std::uint64_t cleanings = 0;         ///< completed log-cleaning rounds
  std::uint64_t cleaned_objects = 0;   ///< objects migrated by cleaning
  std::uint64_t hints_issued = 0;      ///< durability hints sent on alloc acks
};

/// Durability-lint over an object's recovery-meaningful bytes: the span
/// starting at `off` (header + key + value, optionally the flag word),
/// minus the advisory next_ptr word. Linking a newer version rewrites the
/// previous header's next_ptr in place, unflushed — it is a volatile hint
/// recovery never trusts, so a durability claim must not cover that word.
inline void assert_object_durable(analysis::Checker* checker, MemOffset off,
                                  std::size_t span, const char* site) {
  // Static contract: every call site of this dynamic claim must already be
  // dominated by persist evidence on all paths (efac-check rule EFAC001).
  EFAC_FN_REQUIRES_DURABLE();
  if (checker == nullptr) return;
  constexpr std::size_t kResume = kv::ObjectLayout::kNextPtrFieldOff + 8;
  checker->assert_durable(off, kv::ObjectLayout::kNextPtrFieldOff, site);
  checker->assert_durable(off + kResume, span - kResume, site);
}

class StoreBase {
 public:
  StoreBase(sim::Simulator& sim, StoreConfig config,
            std::size_t hash_region_bytes);
  virtual ~StoreBase() = default;
  StoreBase(const StoreBase&) = delete;
  StoreBase& operator=(const StoreBase&) = delete;

  /// Spawn the server worker coroutines (and any system-specific actors).
  void start();

  /// Inject a power failure: volatile state is lost per the crash policy.
  /// After crash() the cluster must not be run further; inspect recovery
  /// with recover_get().
  void crash();

  /// Attempt a full restart after crash(): rebuild volatile server state
  /// from the persisted image and resume service. Returns false for
  /// systems without an online recovery procedure (default); they can only
  /// be inspected via recover_get(). EFactoryStore overrides this with its
  /// recover() walk.
  virtual bool restart() { return false; }

  /// Post-crash lookup against the surviving (persisted) state, following
  /// the system's recovery procedure. No virtual time is charged: recovery
  /// correctness, not speed, is what the paper argues about.
  [[nodiscard]] virtual Expected<Bytes> recover_get(BytesView key) = 0;

  // ------------------------------------------------------------ plumbing
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] nvm::Arena& arena() noexcept { return *arena_; }
  [[nodiscard]] rdma::Fabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] rdma::Node& node() noexcept { return *node_; }
  [[nodiscard]] rpc::Directory& directory() noexcept { return directory_; }
  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }
  [[nodiscard]] ServerStats server_stats() const noexcept {
    return ServerStats{stats_.requests,   stats_.allocs,
                       stats_.persists,   stats_.crc_checks,
                       stats_.bg_verified, stats_.bg_timeouts,
                       stats_.get_durability_hits, stats_.cleanings,
                       stats_.cleaned_objects, stats_.hints_issued};
  }
  /// Cluster-side registry: server counters ("server.*"), arena counters
  /// ("arena.*") and server-side span histograms ("span.server.*").
  [[nodiscard]] metrics::MetricsRegistry& metrics() noexcept {
    return metrics_;
  }
  [[nodiscard]] const metrics::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] std::uint32_t index_rkey() const noexcept {
    return index_rkey_;
  }
  [[nodiscard]] std::uint32_t pool_rkey() const noexcept { return pool_rkey_; }
  [[nodiscard]] kv::DataPool& pool_a() noexcept { return *pool_a_; }
  [[nodiscard]] kv::DataPool& pool_b() noexcept {
    EFAC_CHECK(pool_b_ != nullptr);
    return *pool_b_;
  }
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// Cluster-wide fault injector (armed iff config().fault_plan is
  /// non-empty; disabled injectors are inert).
  [[nodiscard]] fault::Injector& injector() noexcept { return injector_; }

  /// Conflict sanitizer, or nullptr when config().analysis.enabled is
  /// false (the common case: disabled costs one pointer test per site).
  [[nodiscard]] analysis::Checker* checker() noexcept {
    return checker_.get();
  }

  /// Flight recorder, or nullptr when config().trace.enabled is false
  /// (same pattern as checker(): disabled costs one pointer test per
  /// emission site). Clients attach via KvClient::attach(wiring()).
  [[nodiscard]] trace::EventLog* trace_log() noexcept {
    return trace_log_.get();
  }

  /// Telemetry sampler, or nullptr when config().telemetry.enabled is
  /// false (same pattern again: disabled costs one pointer test per probe
  /// site and registers no simulator event).
  [[nodiscard]] metrics::TelemetrySampler* telemetry() noexcept {
    return telemetry_.get();
  }

  /// The cross-cutting subsystems a new client should be attach()ed to.
  [[nodiscard]] ClusterWiring wiring() noexcept {
    return ClusterWiring{checker(), trace_log(), telemetry()};
  }

  /// Allocate a unique QP id for a new client connection.
  [[nodiscard]] std::uint64_t next_qp_id() noexcept { return next_qp_id_++; }

  /// True if `off` plausibly begins an object whose span fits the arena.
  [[nodiscard]] bool object_span_ok(MemOffset off,
                                    const kv::ObjectMeta& meta) const;

  /// True if a header can even be read at `off` (aligned, in range) —
  /// guards version-chain walks against garbage pointers before the
  /// span check can run.
  [[nodiscard]] bool header_readable(MemOffset off) const;

  /// Version-chain walk bound: guards against cycles from torn pointers.
  static constexpr int kMaxChain = 32;

  /// One version found by versions_newest_first().
  struct Version {
    MemOffset off;
    SimTime write_time;
  };

  /// Every plausible version reachable from two chain heads (a HashDir
  /// entry's two pools), newest write_time first; versions of the same
  /// instant keep walk order: down the first chain, then the second. Each
  /// chain is followed along pre_ptr for at most kMaxChain hops and stops
  /// at a garbage pointer, an offset already found, or an implausible
  /// span. Each header is read once: the sort uses the cached write_time.
  [[nodiscard]] std::vector<Version> versions_newest_first(
      MemOffset first_head, MemOffset second_head) const;

 protected:
  /// Registry-backed counters; field names mirror ServerStats so existing
  /// `++stats_.requests` sites read identically.
  struct Counters {
    explicit Counters(metrics::MetricsRegistry& r)
        : requests(r.counter("server.requests")),
          allocs(r.counter("server.allocs")),
          persists(r.counter("server.persists")),
          crc_checks(r.counter("server.crc_checks")),
          bg_verified(r.counter("server.bg_verified")),
          bg_timeouts(r.counter("server.bg_timeouts")),
          get_durability_hits(r.counter("server.get_durability_hits")),
          cleanings(r.counter("server.cleanings")),
          cleaned_objects(r.counter("server.cleaned_objects")),
          hints_issued(r.counter("server.hints_issued")) {}
    metrics::Counter& requests;
    metrics::Counter& allocs;
    metrics::Counter& persists;
    metrics::Counter& crc_checks;
    metrics::Counter& bg_verified;
    metrics::Counter& bg_timeouts;
    metrics::Counter& get_durability_hits;
    metrics::Counter& cleanings;
    metrics::Counter& cleaned_objects;
    metrics::Counter& hints_issued;
  };

  /// Dispatch one inbound message (request or IMM notification).
  virtual sim::Task<void> handle(rdma::InboundMessage msg) = 0;

  /// Hook for system-specific actors (eFactory's background thread).
  virtual void start_extras() {}

  /// Charge `d` ns of this worker's CPU.
  [[nodiscard]] sim::DelayAwaiter charge(SimDuration d) {
    return sim::delay(sim_, d);
  }

  /// Write (and optionally persist) an object's header + key at `off` on
  /// behalf of an alloc request; initializes the durability flag to 0.
  /// Returns the CPU+flush cost the caller should charge.
  SimDuration place_object_metadata(MemOffset off, const AllocRequest& req,
                                    MemOffset pre_ptr, bool persist);

  sim::Simulator& sim_;
  StoreConfig config_;
  // metrics_ must precede arena_ (the arena registers its counters here)
  // and stats_/tracer_ (which hold references into it); injector_ must
  // precede arena_/fabric_ too (both hold a pointer to it).
  metrics::MetricsRegistry metrics_;
  fault::Injector injector_;
  // checker_ must precede arena_ (the arena holds a pointer to it) and is
  // destroyed after it; ~Checker also detaches itself from the Simulator.
  std::unique_ptr<analysis::Checker> checker_;
  // trace_log_ must precede every Recorder that points into it (the
  // server/fault recorders below, plus per-system verifier/cleaner ones).
  std::unique_ptr<trace::EventLog> trace_log_;
  trace::Recorder server_rec_;
  trace::Recorder fault_rec_;
  // telemetry_ must follow metrics_ (its accounting counters live there)
  // and trace_log_ (the violation hook emits through telemetry_rec_).
  std::unique_ptr<metrics::TelemetrySampler> telemetry_;
  trace::Recorder telemetry_rec_;
  std::unique_ptr<nvm::Arena> arena_;
  rdma::Fabric fabric_;
  std::unique_ptr<rdma::Node> node_;
  rpc::Directory directory_;
  std::unique_ptr<kv::DataPool> pool_a_;
  std::unique_ptr<kv::DataPool> pool_b_;
  std::uint32_t index_rkey_ = 0;
  std::uint32_t pool_rkey_ = 0;
  Counters stats_{metrics_};
  metrics::Tracer tracer_{sim_, metrics_};
  bool crashed_ = false;
  std::uint64_t next_qp_id_ = 1;
};

}  // namespace efac::stores
