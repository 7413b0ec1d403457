// eFactory: the paper's system (§4).
//
//  * PUT   — client-active with asynchronous durability: a small alloc RPC
//            (server allocates in the log, writes + persists object
//            metadata and the hash entry), then a one-sided RDMA WRITE of
//            the value. No flush on the critical path.
//  * Background thread — verifies each written object's CRC, flushes it,
//            and sets the embedded durability flag; invalidates objects
//            whose payload never completes within the timeout.
//  * GET   — hybrid read: optimistic pure-RDMA (entry read + object read +
//            flag check), falling back to RPC+RDMA with the *selective
//            durability guarantee* (flag hit -> answer immediately; miss ->
//            verify + persist + flag; torn -> walk the version list).
//  * Log cleaning — two-stage (compress, merge) migration into the sibling
//            pool, concurrent with traffic; clients are switched to the
//            RPC read scheme for the duration.
//
// Invariant maintained everywhere: durability flag == 1  ⇒  the object's
// bytes are CRC-valid AND persisted. This is what makes the pure-RDMA read
// path safe and reads monotonic across crashes.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "kv/hash_dir.hpp"
#include "stores/adaptive.hpp"
#include "stores/kv_client.hpp"
#include "stores/store_base.hpp"

namespace efac::stores {

class EFactoryStore final : public StoreBase {
 public:
  explicit EFactoryStore(sim::Simulator& sim, StoreConfig config = {});

  /// Create a client. ReadMode::kRpcOnly yields "eFactory w/o hr" (always
  /// RPC+RDMA reads), the paper's factor-analysis configuration; kDefault
  /// resolves to the hybrid read scheme.
  [[nodiscard]] std::unique_ptr<KvClient> make_client(
      ClientOptions options = {});

  [[nodiscard]] Expected<Bytes> recover_get(BytesView key) override;

  /// Outcome of a full server restart (see recover()).
  struct RecoveryReport {
    std::size_t entries_scanned = 0;
    std::size_t keys_recovered = 0;
    std::size_t keys_lost = 0;        ///< no intact version survived
    std::size_t tombstones_dropped = 0;
    std::size_t versions_discarded = 0;  ///< torn/stale versions not kept
  };

  /// Full restart after crash(): scans the surviving index, keeps the
  /// newest CRC-intact version of every key, compacts them into pool A,
  /// rebuilds all volatile server state (allocator watermarks, cleaning
  /// state, verification queue), and resumes service. Recovered objects
  /// come up verified + flagged, so hybrid reads are immediately fast.
  /// Recovery time is not charged to the virtual clock (the paper's
  /// "recover fast" argument is about correctness, not simulated speed).
  RecoveryReport recover();

  // ---------------------------------------------------------- visibility
  [[nodiscard]] kv::HashDir& dir() noexcept { return dir_; }
  [[nodiscard]] bool cleaning_active() const noexcept {
    return stage_ != CleanStage::kIdle;
  }
  /// The client-visible "use the RPC read scheme" notification.
  [[nodiscard]] bool clients_use_rpc() const noexcept {
    return clients_use_rpc_;
  }
  [[nodiscard]] std::size_t verify_queue_depth() const noexcept {
    return verify_queue_.size();
  }
  [[nodiscard]] kv::DataPool& working_pool() noexcept {
    return pool_flip_ ? pool_b() : pool_a();
  }
  [[nodiscard]] kv::DataPool& shadow_pool() noexcept {
    return pool_flip_ ? pool_a() : pool_b();
  }

  /// Kick off a cleaning round immediately (tests / Fig. 11 bench).
  void force_log_cleaning();

  /// §3.3 timeout rule: an unverifiable object expires only strictly
  /// *after* write_time + timeout. An object whose payload completes
  /// exactly at the deadline is still verifiable and must not be
  /// invalidated (boundary semantics pinned by fault_test and
  /// docs/FAULTS.md).
  [[nodiscard]] static constexpr bool timed_out(SimTime now,
                                                SimTime write_time,
                                                SimDuration timeout) noexcept {
    return now > write_time + timeout;
  }

  /// Online restart: StoreBase::restart() in terms of recover().
  bool restart() override {
    recover();
    return true;
  }

 protected:
  sim::Task<void> handle(rdma::InboundMessage msg) override;
  void start_extras() override;

 private:
  friend class EFactoryClient;
  enum class CleanStage { kIdle, kCompress, kMerge };

  // ------------------------------------------------- hash entry plumbing
  // Entry.mark tracks which pool holds the *working* head. Between
  // cleanings mark == pool_flip_ for every live entry, so a client's
  // mark-based Entry::current() agrees with the server's pool_flip_-based
  // view.
  [[nodiscard]] MemOffset working_of(const kv::HashDir::Entry& e) const {
    return pool_flip_ ? e.off_new : e.off_old;
  }
  [[nodiscard]] MemOffset shadow_of(const kv::HashDir::Entry& e) const {
    return pool_flip_ ? e.off_old : e.off_new;
  }
  void set_working(kv::HashDir::Entry& e, MemOffset off) const {
    (pool_flip_ ? e.off_new : e.off_old) = off;
    e.mark = pool_flip_;
  }
  void set_shadow(kv::HashDir::Entry& e, MemOffset off) const {
    (pool_flip_ ? e.off_old : e.off_new) = off;
  }

  // ------------------------------------------------------------ handlers
  sim::Task<void> handle_alloc(rpc::ParsedRequest req);
  sim::Task<void> handle_alloc_batch(rpc::ParsedRequest req);
  sim::Task<void> handle_get_loc(rpc::ParsedRequest req);
  sim::Task<void> handle_delete(rpc::ParsedRequest req);

  /// Shared body of the single and batched alloc handlers: claim the hash
  /// slot, allocate in the log, write + persist metadata + entry, and
  /// queue verification. Accumulates CPU/flush cost into `cost`; the
  /// ordering SFENCE is the caller's (one per request, shared by every
  /// member of a batch).
  AllocResponse alloc_reserve(const AllocRequest& alloc, SimDuration& cost);

  /// Selective durability guarantee over a version candidate list:
  /// flag set -> return; CRC ok -> persist + flag + return; torn -> next.
  sim::Task<Expected<LocResponse>> locate_verified(std::uint64_t key_hash);

  // ----------------------------------------------------------- background
  sim::Task<void> background_loop();
  /// Verify+persist+flag one object; returns true when flagged durable.
  sim::Task<bool> verify_and_persist(MemOffset off);

  // -------------------------------------------------------- log cleaning
  void maybe_trigger_cleaning();
  sim::Task<void> cleaning_task();
  /// Copy the object at `src` into the shadow pool, linking pre_ptr to
  /// `link`; returns the new offset (0 when the shadow pool is full).
  sim::Task<MemOffset> copy_object(MemOffset src, MemOffset link);
  /// Wait until the object verifies or times out; returns verifiability.
  sim::Task<bool> await_verifiable(MemOffset off);

  kv::HashDir dir_;
  std::deque<MemOffset> verify_queue_;
  /// Measured drain rate of the verifier, as an integer EWMA of the
  /// virtual time between consecutive queue pops (`ewma = (7*ewma + s)/8`).
  /// Durability hints multiply this by the queue depth instead of pricing
  /// every queued object at full verify cost — superseded versions are
  /// stale-skipped nearly for free, so the naive estimate overshoots by
  /// integer factors under write-heavy skew and keeps client hint leases
  /// alive long after the flags are set. 0 until the first two pops.
  SimDuration verify_pop_ewma_ = 0;
  SimTime last_pop_time_ = 0;
  bool last_was_pop_ = false;
  /// Flight-recorder tracks for the two background actors (detached when
  /// tracing is off; attach order fixes the track ids after server/faults).
  trace::Recorder verifier_rec_;
  trace::Recorder cleaner_rec_;
  CleanStage stage_ = CleanStage::kIdle;
  bool pool_flip_ = false;       ///< false: pool A is the working pool
  bool clients_use_rpc_ = false;
  /// Remaining hash slots the current cleaning stage still has to walk
  /// (0 when idle) — the cleaner candidate backlog the telemetry sampler
  /// polls as "server.cleaner_backlog".
  std::size_t clean_backlog_ = 0;
  SimTime compress_start_ = 0;
  /// Bumped by recover(): long-running actors (background verifier, log
  /// cleaner) from before a restart observe the mismatch at their next
  /// resumption and terminate — a restart kills the old server threads.
  std::uint64_t epoch_ = 0;
};

/// eFactory client: client-active PUT, hybrid (or RPC-only) GET.
class EFactoryClient final : public KvClient {
 public:
  EFactoryClient(EFactoryStore& store, const ClientOptions& options);

 protected:
  sim::Task<Status> put_attempt(Bytes key, Bytes value) override;
  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override;
  sim::Task<Status> del_attempt(Bytes key) override;

  /// Batch-reserve PUT: one kAllocBatch RPC for the whole batch, then a
  /// doorbell-coalesced burst of one-sided value writes.
  [[nodiscard]] bool has_batch_put() const noexcept override { return true; }
  sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>& ops,
      const std::vector<std::uint32_t>& op_ids) override;

 private:
  /// One-sided read of a whole object; returns the value on success.
  /// Sets *tombstoned when the object is a valid delete marker.
  sim::Task<Expected<Bytes>> read_object_at(MemOffset off, std::size_t klen,
                                            std::size_t vlen,
                                            std::uint64_t expect_hash,
                                            bool require_flag,
                                            bool* tombstoned = nullptr);

  /// Validate a raw object snapshot (from read_object_at or a speculative
  /// pair READ) and extract the value. Pure CPU — no verbs.
  static Expected<Bytes> decode_object(const Bytes& raw, std::size_t klen,
                                       std::size_t vlen,
                                       std::uint64_t expect_hash,
                                       bool require_flag, bool* tombstoned);

  EFactoryStore& store_;
  rpc::Connection conn_;
  bool hybrid_;
  /// Adaptive hybrid-read state (stores/adaptive.hpp), or nullptr when
  /// options.adaptive.enabled is false or reads are RPC-only — the common
  /// case costs one pointer test per GET and keeps the wire format, the
  /// metrics namespace, and dispatch schedules untouched.
  std::unique_ptr<AdaptiveReadTracker> adaptive_;
};

}  // namespace efac::stores
