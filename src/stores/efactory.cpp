#include "stores/efactory.hpp"

#include "common/contracts.hpp"

#include <algorithm>
#include <optional>

namespace efac::stores {

namespace {

StoreConfig with_efactory_defaults(StoreConfig config) {
  config.second_pool = true;                 // log cleaning needs a sibling
  config.recv_mode = RecvMode::kBatched;     // multiple receiving regions
  return config;
}

}  // namespace

EFactoryStore::EFactoryStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, with_efactory_defaults(config),
                kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets) {
  verifier_rec_.attach(trace_log_.get(), "verifier");
  cleaner_rec_.attach(trace_log_.get(), "cleaner");
  // Load-bearing queue depths for the telemetry sampler: these are the
  // series the paper's dynamics arguments (verifier drain vs. ack latency,
  // cleaner interference) are about. Probes only read state — no verbs, no
  // persistence — so the persist-before-ack contracts are untouched.
  if (telemetry() != nullptr) {
    telemetry()->add_gauge_probe(this, "server.verify_queue_depth", [this] {
      return static_cast<double>(verify_queue_.size());
    });
    telemetry()->add_gauge_probe(this, "server.cleaner_backlog", [this] {
      return static_cast<double>(clean_backlog_);
    });
    telemetry()->add_gauge_probe(this, "server.pool_fill", [this] {
      return working_pool().fill_fraction();
    });
  }
}

std::unique_ptr<KvClient> EFactoryStore::make_client(ClientOptions options) {
  // kDefault on eFactory means the hybrid read scheme.
  if (options.read_mode == ReadMode::kDefault) {
    options.read_mode = ReadMode::kHybrid;
  }
  return std::make_unique<EFactoryClient>(*this, options);
}

void EFactoryStore::start_extras() {
  sim_.spawn(background_loop());
}

// --------------------------------------------------------------- dispatch

sim::Task<void> EFactoryStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  switch (req.opcode) {
    case kAlloc:
      co_await handle_alloc(std::move(req));
      break;
    case kAllocBatch:
      co_await handle_alloc_batch(std::move(req));
      break;
    case kGetLoc:
      co_await handle_get_loc(std::move(req));
      break;
    case kDelete:
      co_await handle_delete(std::move(req));
      break;
    default:
      EFAC_UNREACHABLE("eFactory: unexpected opcode");
  }
}

AllocResponse EFactoryStore::alloc_reserve(const AllocRequest& alloc,
                                           SimDuration& cost) {
  // Every return either persisted the object metadata + hash entry or
  // carries an error status that claims nothing (efac-check EFAC002).
  EFAC_FN_ESTABLISHES_DURABLE();
  const std::uint64_t key_hash = kv::hash_key(alloc.key);

  std::size_t probes = 0;
  AllocResponse resp;
  const Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
  cost += probes * config_.cpu.hash_probe_ns;
  if (stage_ != CleanStage::kIdle) cost += config_.clean_interference_ns;

  if (!slot) {
    EFAC_NO_CLAIM("efactory.alloc.bucket_full");
    resp.status = slot.status().code();
    return resp;
  }
  kv::HashDir::Entry entry = dir_.read(*slot);
  entry.key_hash = key_hash;
  // During merge, new writes go straight to the new (shadow) pool and
  // join its chain; otherwise they append to the working pool.
  const bool to_shadow = stage_ == CleanStage::kMerge;
  kv::DataPool& pool = to_shadow ? shadow_pool() : working_pool();
  const MemOffset pre = to_shadow ? shadow_of(entry) : working_of(entry);
  const std::size_t total =
      kv::ObjectLayout::total_size(alloc.klen, alloc.vlen);
  const Expected<MemOffset> off = pool.allocate(total);
  if (!off) {
    EFAC_NO_CLAIM("efactory.alloc.out_of_space");
    resp.status = StatusCode::kOutOfSpace;
    return resp;
  }
  // Object metadata is written and persisted *before* the offset is
  // returned (paper Fig. 5 steps 2–4).
  cost += place_object_metadata(*off, alloc, pre, /*persist=*/true);
  if (to_shadow) {
    set_shadow(entry, *off);
  } else {
    set_working(entry, *off);
  }
  dir_.write(*slot, entry);
  dir_.persist(*slot);
  cost += arena_->cost().flush_cost(kv::HashDir::kEntrySize);
  // Metadata + hash entry flushed; the handler charges the closing fence
  // before any reply leaves the server.
  EFAC_PERSISTS("efactory.alloc.metadata");
  verify_queue_.push_back(*off);
  resp.status = StatusCode::kOk;
  resp.object_off = *off;
  if (alloc.want_hint) {
    // Durability hint for adaptive-read clients: estimate when the single
    // background verifier will reach this object and flag it durable —
    // queue depth (including this object) times the verifier's *measured*
    // per-pop drain interval. The measured rate matters: under write-heavy
    // skew most queued entries are superseded versions the verifier
    // stale-skips nearly for free, so pricing each at full verify cost
    // (CRC + flush + fence, the cold-start fallback below) overshoots by
    // integer factors and would keep client leases alive long after the
    // flag is set. The verifier still has to wait for the client's
    // one-sided WRITE to land, which neither estimate can see; the client
    // pads the lease with AdaptiveReadOptions::hint_margin_ns for exactly
    // that reason. An off estimate only mis-routes a read (extra RPC or
    // doomed probe), never produces a wrong result.
    const SimDuration per =
        verify_pop_ewma_ > 0 ? verify_pop_ewma_
                             : config_.crc.cost(alloc.vlen) +
                                   arena_->cost().flush_cost(total) +
                                   arena_->cost().fence_ns;
    resp.carry_hint = true;
    resp.durable_eta =
        sim_.now() + static_cast<SimDuration>(verify_queue_.size()) * per;
    ++stats_.hints_issued;
  }
  return resp;
}

sim::Task<void> EFactoryStore::handle_alloc(rpc::ParsedRequest req) {
  const AllocRequest alloc = AllocRequest::decode(req.args);
  SimDuration cost = 0;
  const AllocResponse resp = alloc_reserve(alloc, cost);
  // Object metadata and hash entry drain under one SFENCE.
  if (resp.status == StatusCode::kOk) cost += arena_->cost().fence_ns;
  co_await charge(cost + config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.alloc_ack");
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
  maybe_trigger_cleaning();
}

sim::Task<void> EFactoryStore::handle_alloc_batch(rpc::ParsedRequest req) {
  const BatchAllocRequest batch = BatchAllocRequest::decode(req.args);
  BatchAllocResponse out;
  out.items.reserve(batch.items.size());
  SimDuration cost = 0;
  bool indexed = false;
  for (const AllocRequest& alloc : batch.items) {
    const AllocResponse resp = alloc_reserve(alloc, cost);
    indexed = indexed || resp.status == StatusCode::kOk;
    out.items.push_back(resp);
  }
  // The server-side amortization of the batch-reserve path: every
  // member's object metadata and hash entry drain under ONE shared
  // SFENCE, and the batch costs one receive and one reply.
  if (indexed) cost += arena_->cost().fence_ns;
  // Per-member evidence lives in alloc_reserve (EFAC_FN_ESTABLISHES_
  // DURABLE, called per item above); an empty batch reply claims nothing.
  EFAC_PERSISTS("efactory.alloc_batch.members");
  co_await charge(cost + config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.alloc_batch_ack");
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(out.encode());
  maybe_trigger_cleaning();
}

sim::Task<void> EFactoryStore::handle_delete(rpc::ParsedRequest req) {
  const GetLocRequest del = GetLocRequest::decode(req.args);
  const std::uint64_t key_hash = kv::hash_key(del.key);
  std::size_t probes = 0;
  StatusCode status = StatusCode::kOk;
  const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
  SimDuration cost = probes * config_.cpu.hash_probe_ns;
  if (!slot) {
    EFAC_NO_CLAIM("efactory.del.not_found");
    status = StatusCode::kNotFound;
  } else {
    kv::HashDir::Entry entry = dir_.read(*slot);
    const bool to_shadow = stage_ == CleanStage::kMerge;
    kv::DataPool& pool = to_shadow ? shadow_pool() : working_pool();
    const MemOffset pre = to_shadow ? shadow_of(entry) : working_of(entry);
    const std::size_t klen = del.key.size();
    const Expected<MemOffset> off =
        pool.allocate(kv::ObjectLayout::total_size(klen, 0));
    if (!off) {
      EFAC_NO_CLAIM("efactory.del.out_of_space");
      status = StatusCode::kOutOfSpace;
    } else {
      // A delete is an appended tombstone version: out-of-place like any
      // update, so it is crash-atomic and reclaimable by log cleaning.
      kv::ObjectMeta meta;
      meta.crc = kv::object_crc(key_hash, static_cast<std::uint32_t>(klen), 0, BytesView{});
      meta.klen = static_cast<std::uint32_t>(klen);
      meta.vlen = 0;
      meta.valid = true;
      meta.tombstone = true;
      meta.pre_ptr = pre;
      meta.write_time = sim_.now();
      meta.key_hash = key_hash;
      kv::ObjectRef obj{*arena_, *off};
      obj.write_header(meta);
      obj.write_key(del.key);
      obj.set_durable(klen, 0, false);
      if (pre != 0) kv::ObjectRef{*arena_, pre}.set_next_ptr(*off);
      const std::size_t meta_bytes = kv::ObjectLayout::kHeaderSize + klen;
      arena_->flush(*off, meta_bytes);
      ++stats_.allocs;
      ++stats_.persists;
      if (to_shadow) {
        set_shadow(entry, *off);
      } else {
        set_working(entry, *off);
      }
      dir_.write(*slot, entry);
      dir_.persist(*slot);
      verify_queue_.push_back(*off);  // bg will flag the (empty) tombstone
      // Tombstone header+key and hash entry flushed; fence charged below.
      EFAC_PERSISTS("efactory.del.tombstone");
      cost += config_.cpu.alloc_ns +
              arena_->cost().store_cost(meta_bytes) +
              arena_->cost().flush_cost(meta_bytes) +
              arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
              arena_->cost().fence_ns;
    }
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.del_ack");
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(
      encode_status(status));
}

// ------------------------------------------------------------------- GET

sim::Task<Expected<LocResponse>> EFactoryStore::locate_verified(
    std::uint64_t key_hash) {
  // Ok returns hand out only verified-durable locations; error returns
  // claim nothing (efac-check EFAC002 discharges this summary).
  EFAC_FN_ESTABLISHES_DURABLE();
  std::size_t probes = 0;
  const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
  co_await charge(probes * config_.cpu.hash_probe_ns);
  if (!slot) {
    EFAC_NO_CLAIM("efactory.locate.not_found");
    co_return Status{StatusCode::kNotFound};
  }

  const kv::HashDir::Entry entry = dir_.read(*slot);
  const std::vector<Version> versions =
      versions_newest_first(working_of(entry), shadow_of(entry));
  bool saw_torn = false;
  for (const Version& v : versions) {
    const MemOffset off = v.off;
    kv::ObjectRef obj{*arena_, off};
    const kv::ObjectMeta meta = obj.read_header();
    if (!meta.valid || meta.key_hash != key_hash) continue;
    // Tombstones are server-written and persisted synchronously: the
    // newest valid version being a tombstone means the key is deleted.
    if (meta.tombstone) {
      // Deletion was persisted synchronously by the delete handler; this
      // reply claims no OBJECT durability (nothing to locate).
      EFAC_NO_CLAIM("efactory.locate.deleted");
      co_return Status{StatusCode::kNotFound, "deleted"};
    }
    LocResponse resp;
    resp.object_off = off;
    resp.klen = meta.klen;
    resp.vlen = meta.vlen;
    // Durability check first: if the background thread (or an earlier
    // read) already persisted it, answer without touching the data.
    if (obj.is_durable(meta.klen, meta.vlen)) {
      ++stats_.get_durability_hits;
      // flag==1 promises exactly this: header+key+value are persisted.
      assert_object_durable(
          checker_.get(), off,
          kv::ObjectLayout::flag_offset(meta.klen, meta.vlen),
          "efactory.get.durability_hit");
      // For adaptive-read feedback: a one-sided read issued instead of
      // this RPC would have found the flag set.
      resp.was_durable = true;
      co_return resp;
    }
    // Selective durability guarantee: verify + persist + flag. The flag is
    // set *now*, by us — was_durable stays false, because a concurrent
    // one-sided read would have missed it.
    if (co_await verify_and_persist(off)) {
      co_return resp;
    }
    saw_torn = true;
  }
  EFAC_NO_CLAIM("efactory.locate.miss_or_torn");
  co_return Status{saw_torn ? StatusCode::kCorrupt : StatusCode::kNotFound};
}

sim::Task<void> EFactoryStore::handle_get_loc(rpc::ParsedRequest req) {
  const GetLocRequest get = GetLocRequest::decode(req.args);
  Expected<LocResponse> located =
      co_await locate_verified(kv::hash_key(get.key));
  LocResponse resp;
  if (located) {
    resp = *located;
  } else {
    resp.status = located.status().code();
  }
  // Echo the durability observation only to clients that asked, so the
  // reply size (which feeds the latency model) is unchanged for others.
  resp.carry_hint = get.want_hint;
  co_await charge(config_.cpu.send_post_ns);
  EFAC_ACK_SITE("efactory.locate_ack");
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
}

// ------------------------------------------------------------ background

sim::Task<bool> EFactoryStore::verify_and_persist(MemOffset off) {
  // Returns true only after CRC verify + flush + fence (or an observed
  // durability flag); false paths claim nothing (efac-check EFAC002).
  EFAC_FN_ESTABLISHES_DURABLE();
  kv::ObjectRef obj{*arena_, off};
  const kv::ObjectMeta meta = obj.read_header();
  if (!object_span_ok(off, meta) || !meta.valid) {
    EFAC_NO_CLAIM("efactory.verify.garbage");
    co_return false;
  }
  if (obj.is_durable(meta.klen, meta.vlen)) co_return true;

  ++stats_.crc_checks;
  co_await charge(config_.crc.cost(meta.vlen));
  {
    // The verify read races with the client's in-flight RDMA WRITE by
    // design; a CRC mismatch on torn bytes is the expected outcome.
    analysis::AccessGuard guard(checker_.get(), analysis::Guard::kCrcVerify,
                                "efactory.verify_crc");
    if (!obj.verify_crc()) {
      EFAC_NO_CLAIM("efactory.verify.torn");
      co_return false;
    }
  }

  const std::size_t total = kv::ObjectLayout::total_size(meta.klen, meta.vlen);
  obj.flush_all(meta.klen, meta.vlen);
  co_await charge(arena_->cost().flush_cost(total) + arena_->cost().fence_ns);
  EFAC_PERSISTS("efactory.verify.flush_fence");
  verifier_rec_.emit(trace::EventType::kVerifyFlush, 0, off, total);
  // The flag covers header+key+value only — itself it stays volatile.
  assert_object_durable(checker_.get(), off,
                        kv::ObjectLayout::flag_offset(meta.klen, meta.vlen),
                        "efactory.verify_and_persist.flag");
  // The flag is set only after the payload is persisted. The flag itself
  // stays volatile: flag==1 promises "bytes are durable", and recovery
  // never trusts flags (it re-verifies by CRC), so losing a set flag in a
  // crash is harmless — and skipping its flush+fence doubles the single
  // background thread's verification rate.
  obj.set_durable(meta.klen, meta.vlen, true);
  verifier_rec_.emit(trace::EventType::kFlagSet, 0, off);
  ++stats_.persists;
  // Write-to-durable latency: how long the object sat unflagged since the
  // alloc handler stamped it (the paper's asynchronous-durability window).
  tracer_.record("server.verify_to_flag", sim_.now() - meta.write_time);
  co_return true;
}

sim::Task<void> EFactoryStore::background_loop() {
  const std::uint64_t epoch = epoch_;
  last_was_pop_ = false;  // a restart's idle gap is not a drain sample
  for (;;) {
    if (epoch != epoch_) co_return;  // superseded by a restart
    if (verify_queue_.empty()) {
      last_was_pop_ = false;
      co_await charge(config_.bg_idle_ns);
      continue;
    }
    // Sample the drain rate as the interval between consecutive pops (only
    // across a continuously busy queue — idle gaps are excluded above).
    // This folds in whatever mix of full verifies, stale skips, and
    // retries the workload actually produces, which is what makes the
    // durability hints in alloc_reserve track reality.
    const SimTime pop_now = sim_.now();
    if (last_was_pop_) {
      const SimDuration sample = pop_now - last_pop_time_;
      verify_pop_ewma_ = verify_pop_ewma_ == 0
                             ? sample
                             : (7 * verify_pop_ewma_ + sample) / 8;
    }
    last_pop_time_ = pop_now;
    last_was_pop_ = true;
    const MemOffset off = verify_queue_.front();
    verify_queue_.pop_front();
    verifier_rec_.emit(trace::EventType::kVerifyScan, 0, off,
                       verify_queue_.size());

    kv::ObjectRef obj{*arena_, off};
    const kv::ObjectMeta meta = obj.read_header();
    co_await charge(arena_->cost().load_cost(kv::ObjectLayout::kHeaderSize));
    if (!object_span_ok(off, meta) || !meta.valid) continue;
    if (obj.is_durable(meta.klen, meta.vlen)) continue;  // GET got here first
    // Superseded versions are skipped: the head is what reads target, and
    // stale space is reclaimed by log cleaning anyway. One cheap probe
    // against the index answers it (the durability flag plays the same
    // fast-skip role the paper describes for already-persisted objects).
    if (const Expected<std::size_t> slot = dir_.find(meta.key_hash)) {
      const kv::HashDir::Entry entry = dir_.read(*slot);
      co_await charge(config_.cpu.hash_probe_ns);
      if (working_of(entry) != off && shadow_of(entry) != off) continue;
    }

    if (co_await verify_and_persist(off)) {
      ++stats_.bg_verified;
      continue;
    }
    // Incomplete: either the RDMA WRITE is still in flight, or it died.
    if (timed_out(sim_.now(), meta.write_time, config_.object_timeout_ns)) {
      // Identity re-check: the CRC attempt suspended, and a recovery /
      // cleaning round may have recycled this offset for a new object in
      // the meantime — never invalidate somebody else's version.
      const kv::ObjectMeta now_meta = obj.read_header();
      if (now_meta.key_hash == meta.key_hash &&
          now_meta.write_time == meta.write_time) {
        obj.set_valid(false);
        arena_->flush(off, kv::ObjectLayout::kHeaderSize);
        co_await charge(arena_->cost().flush_cost(
                            kv::ObjectLayout::kHeaderSize) +
                        arena_->cost().fence_ns);
        ++stats_.bg_timeouts;
        verifier_rec_.emit(trace::EventType::kVerifyTimeout, 0, off);
      }
    } else {
      verify_queue_.push_back(off);
      co_await charge(config_.bg_retry_ns);
    }
  }
}

// ---------------------------------------------------------- log cleaning

void EFactoryStore::maybe_trigger_cleaning() {
  if (stage_ != CleanStage::kIdle) return;
  if (working_pool().fill_fraction() < config_.clean_threshold) return;
  force_log_cleaning();
}

void EFactoryStore::force_log_cleaning() {
  if (stage_ != CleanStage::kIdle || crashed_) return;
  stage_ = CleanStage::kCompress;  // claims the role before the task runs
  sim_.spawn(cleaning_task());
}

sim::Task<MemOffset> EFactoryStore::copy_object(MemOffset src,
                                                MemOffset link) {
  kv::ObjectRef source{*arena_, src};
  const kv::ObjectMeta meta = source.read_header();
  if (!object_span_ok(src, meta)) co_return 0;
  const std::size_t total = kv::ObjectLayout::total_size(meta.klen, meta.vlen);

  const bool source_flagged = source.is_durable(meta.klen, meta.vlen);
  if (!source_flagged) {
    // An unverified source may still be receiving its RDMA WRITE. Check it
    // *before* claiming shadow space: a torn snapshot can never heal (the
    // payload bytes land at the source offset, not in the copy), and an
    // abandoned copy would leak shadow-pool space that later slots and the
    // finish stage need. A CRC pass means the write has fully landed, so
    // the version is immutable from here on.
    ++stats_.crc_checks;
    co_await charge(config_.crc.cost(meta.vlen));
    if (!source.verify_crc()) co_return 0;
  }

  const Expected<MemOffset> dst = shadow_pool().allocate(total);
  if (!dst) co_return 0;

  Bytes bytes;
  {
    // Verified (flag or CRC) before the load, so the bytes are immutable;
    // the guard documents the cross-actor read for the sanitizer.
    analysis::AccessGuard guard(checker_.get(), analysis::Guard::kCrcVerify,
                                "efactory.clean.copy");
    bytes = arena_->load(src, total);
  }
  arena_->store(*dst, bytes);
  kv::ObjectRef copy{*arena_, *dst};
  copy.set_durable(meta.klen, meta.vlen, false);  // never inherit the flag
  copy.set_pre_ptr(link);
  copy.set_next_ptr(0);
  // Mark the source as transferred so version-list traversal during
  // cleaning can tell a migrated version from a live one (paper Fig. 7).
  source.set_transferred(true);
  arena_->flush(*dst, total);
  co_await charge(config_.cpu.memcpy_cost(total) +
                  arena_->cost().flush_cost(total) +
                  arena_->cost().fence_ns);
  EFAC_PERSISTS("efactory.clean.copy_flush");
  // The source was verified up front (durability flag, or the CRC pass
  // above); an atomic CPU copy of intact bytes is intact, so the copy
  // earns the flag without re-verification.
  assert_object_durable(checker_.get(), *dst,
                        kv::ObjectLayout::flag_offset(meta.klen, meta.vlen),
                        "efactory.clean.copy_flag");
  copy.set_durable(meta.klen, meta.vlen, true);  // volatile, like verify
  ++stats_.cleaned_objects;
  cleaner_rec_.emit(trace::EventType::kGcCopy, 0, src, *dst);
  co_return *dst;
}

sim::Task<bool> EFactoryStore::await_verifiable(MemOffset off) {
  kv::ObjectRef obj{*arena_, off};
  for (;;) {
    const kv::ObjectMeta meta = obj.read_header();
    if (!object_span_ok(off, meta) || !meta.valid) co_return false;
    if (obj.is_durable(meta.klen, meta.vlen)) co_return true;
    ++stats_.crc_checks;
    co_await charge(config_.crc.cost(meta.vlen));
    if (obj.verify_crc()) co_return true;
    if (timed_out(sim_.now(), meta.write_time, config_.object_timeout_ns)) {
      obj.set_valid(false);
      co_return false;
    }
    co_await charge(config_.bg_retry_ns);
  }
}

sim::Task<void> EFactoryStore::cleaning_task() {
  const std::uint64_t epoch = epoch_;
  // Whole-round duration (partial rounds killed by a restart record too).
  metrics::Span round_span{tracer_, "server.clean_round"};
  // ---- Stage 1: log compressing -------------------------------------
  cleaner_rec_.emit(trace::EventType::kGcSwitch,
                    static_cast<std::uint8_t>(CleanStage::kCompress));
  clients_use_rpc_ = true;
  co_await charge(config_.clean_notify_ns);  // notification reaches clients
  if (epoch != epoch_) co_return;  // a restart killed this round
  compress_start_ = sim_.now();
  shadow_pool().reset();

  // Candidate backlog for the telemetry gauge: slots this stage has left.
  clean_backlog_ = dir_.bucket_count();
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    if (epoch != epoch_) co_return;
    --clean_backlog_;
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    const MemOffset head = working_of(entry);
    if (head == 0) continue;
    const MemOffset copy = co_await copy_object(head, /*link=*/0);
    // Shadow pool full or in-flight write tore the copy: keep old data.
    if (copy == 0) continue;
    entry = dir_.read(slot);  // re-read: PUTs may have run meanwhile
    set_shadow(entry, copy);
    dir_.write(slot, entry);
    dir_.persist(slot);
    co_await charge(arena_->cost().flush_cost(kv::HashDir::kEntrySize));
  }

  // ---- Stage 2: log merging -----------------------------------------
  stage_ = CleanStage::kMerge;
  cleaner_rec_.emit(trace::EventType::kGcSwitch,
                    static_cast<std::uint8_t>(CleanStage::kMerge));
  clean_backlog_ = dir_.bucket_count();
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    if (epoch != epoch_) co_return;
    --clean_backlog_;
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    const MemOffset old_head = working_of(entry);
    if (old_head == 0) continue;
    kv::ObjectRef obj{*arena_, old_head};
    const kv::ObjectMeta meta = obj.read_header();
    if (!object_span_ok(old_head, meta)) continue;
    if (meta.write_time < compress_start_) continue;  // compress got it

    // Skip rule (paper Fig. 7b): if a newer version already lives in the
    // new pool and is durable (or can be made durable), the old one is
    // stale and need not move.
    const MemOffset shadow_head = shadow_of(entry);
    if (shadow_head != 0) {
      const kv::ObjectMeta shadow_meta =
          kv::ObjectRef{*arena_, shadow_head}.read_header();
      if (object_span_ok(shadow_head, shadow_meta) &&
          shadow_meta.write_time > meta.write_time &&
          co_await await_verifiable(shadow_head)) {
        continue;
      }
    }
    // Wait out an in-flight RDMA WRITE before copying, else we would
    // immortalize a torn object.
    if (!co_await await_verifiable(old_head)) continue;
    const MemOffset snapshot_shadow = shadow_of(dir_.read(slot));
    const MemOffset copy = co_await copy_object(old_head, snapshot_shadow);
    if (copy == 0) continue;
    entry = dir_.read(slot);
    if (shadow_of(entry) != snapshot_shadow) {
      // A merge-era PUT spliced in while we copied; our copy is stale.
      kv::ObjectRef{*arena_, copy}.set_valid(false);
      continue;
    }
    set_shadow(entry, copy);
    dir_.write(slot, entry);
    dir_.persist(slot);
    co_await charge(arena_->cost().flush_cost(kv::HashDir::kEntrySize));
  }

  // ---- Finish: flip the mark bit, retire the old pool ----------------
  clean_backlog_ = dir_.bucket_count();
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    if (epoch != epoch_) co_return;
    --clean_backlog_;
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    MemOffset new_head = shadow_of(entry);
    if (new_head == 0) {
      // Live key that never reached the new pool (e.g. shadow pool filled
      // up): last-chance migration so the pool reset cannot orphan it.
      const MemOffset head = working_of(entry);
      if (head != 0 && co_await await_verifiable(head)) {
        new_head = co_await copy_object(head, 0);
      }
      if (new_head == 0) {
        // Nothing valid survives for this key; drop the entry offsets.
        entry.off_old = entry.off_new = 0;
      }
    }
    if (new_head != 0) {
      // Reclaim deleted keys outright: a tombstone head means nothing of
      // this key needs to survive the round ("the memory of deleted and
      // stale objects", paper §4.4).
      const kv::ObjectMeta head_meta =
          kv::ObjectRef{*arena_, new_head}.read_header();
      if (object_span_ok(new_head, head_meta) && head_meta.valid &&
          head_meta.tombstone) {
        entry.off_old = entry.off_new = 0;
        entry.mark = !pool_flip_;
      } else {
        entry.off_old = pool_flip_ ? new_head : 0;
        entry.off_new = pool_flip_ ? 0 : new_head;
        entry.mark = !pool_flip_;
      }
    }
    dir_.write(slot, entry);
    dir_.persist(slot);
  }
  co_await charge(config_.clean_notify_ns);
  if (epoch != epoch_) co_return;

  // Retire: drop pending verifications that point into the retired pool.
  kv::DataPool& retired = working_pool();
  std::erase_if(verify_queue_,
                [&](MemOffset off) { return retired.contains(off); });
  retired.reset();
  pool_flip_ = !pool_flip_;
  ++stats_.cleanings;
  stage_ = CleanStage::kIdle;
  clients_use_rpc_ = false;
  clean_backlog_ = 0;
  cleaner_rec_.emit(trace::EventType::kGcSwitch,
                    static_cast<std::uint8_t>(CleanStage::kIdle));
}

// --------------------------------------------------------------- recovery

Expected<Bytes> EFactoryStore::recover_get(BytesView key) {
  // Recovery runs under the server clock domain; every candidate version
  // is CRC-re-verified, which is what makes reading the wreckage safe.
  analysis::ActorScope scope(checker_.get(),
                             checker_ != nullptr ? checker_->server_actor()
                                                 : 0);
  analysis::AccessGuard guard(checker_.get(), analysis::Guard::kRecoveryScan,
                              "efactory.recover_get");
  const std::uint64_t key_hash = kv::hash_key(key);
  const Expected<std::size_t> slot = dir_.find(key_hash);
  if (!slot) return Status{StatusCode::kNotFound};
  const kv::HashDir::Entry entry = dir_.read(*slot);
  for (const Version& v :
       versions_newest_first(working_of(entry), shadow_of(entry))) {
    kv::ObjectRef obj{*arena_, v.off};
    const kv::ObjectMeta meta = obj.read_header();
    if (!meta.valid || meta.key_hash != key_hash) continue;
    if (meta.tombstone) return Status{StatusCode::kNotFound, "deleted"};
    if (obj.verify_crc()) {
      return obj.read_value(meta.klen, meta.vlen);
    }
  }
  return Status{StatusCode::kCorrupt, "no intact version survives"};
}

EFactoryStore::RecoveryReport EFactoryStore::recover() {
  analysis::ActorScope scope(checker_.get(),
                             checker_ != nullptr ? checker_->server_actor()
                                                 : 0);
  analysis::AccessGuard guard(checker_.get(), analysis::Guard::kRecoveryScan,
                              "efactory.recover");
  RecoveryReport report;

  // 1. Harvest: newest intact version per key from the surviving state.
  struct Survivor {
    std::size_t slot;
    kv::ObjectMeta meta;
    Bytes key;
    Bytes value;
  };
  std::vector<Survivor> survivors;
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    const kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    ++report.entries_scanned;
    if (entry.off_old == 0 && entry.off_new == 0) {
      // A claimed slot with no versions: the key was deleted and its
      // tombstone already reclaimed by cleaning. Nothing to lose.
      ++report.tombstones_dropped;
      continue;
    }
    bool kept = false;
    bool deleted = false;
    for (const Version& v :
         versions_newest_first(working_of(entry), shadow_of(entry))) {
      kv::ObjectRef obj{*arena_, v.off};
      const kv::ObjectMeta meta = obj.read_header();
      if (!meta.valid || meta.key_hash != entry.key_hash) {
        ++report.versions_discarded;
        continue;
      }
      if (meta.tombstone) {
        deleted = true;
        break;
      }
      if (!obj.verify_crc()) {
        ++report.versions_discarded;
        continue;
      }
      survivors.push_back(Survivor{slot, meta, obj.read_key(meta.klen),
                                   obj.read_value(meta.klen, meta.vlen)});
      kept = true;
      break;
    }
    if (deleted) {
      ++report.tombstones_dropped;
    } else if (kept) {
      ++report.keys_recovered;
    } else {
      ++report.keys_lost;
    }
  }

  // 2. Rebuild: compact every survivor into pool A from a clean slate.
  //    (Bytes were copied out above, so overwriting the pools is safe.)
  pool_a().reset();
  if (config_.second_pool) pool_b().reset();
  pool_flip_ = false;
  stage_ = CleanStage::kIdle;
  clients_use_rpc_ = false;
  clean_backlog_ = 0;
  verify_queue_.clear();

  for (Survivor& s : survivors) {
    const std::size_t total =
        kv::ObjectLayout::total_size(s.meta.klen, s.meta.vlen);
    const Expected<MemOffset> off = pool_a().allocate(total);
    EFAC_CHECK_MSG(off.has_value(), "recovery compaction cannot overflow");
    kv::ObjectMeta meta = s.meta;
    meta.pre_ptr = 0;  // history was compacted away
    meta.next_ptr = 0;
    meta.transferred = false;
    kv::ObjectRef obj{*arena_, *off};
    obj.write_header(meta);
    obj.write_key(s.key);
    arena_->store(*off + kv::ObjectLayout::kHeaderSize + s.meta.klen,
                  s.value);
    arena_->flush(*off, total);
    // Recovery runs quiesced: the flush persists synchronously, no fence
    // race to order against.
    EFAC_PERSISTS("efactory.recover.compact_flush");
    assert_object_durable(
        checker_.get(), *off,
        kv::ObjectLayout::flag_offset(s.meta.klen, s.meta.vlen),
        "efactory.recover.compact_flag");
    obj.set_durable(s.meta.klen, s.meta.vlen, true);  // verified above

    kv::HashDir::Entry entry{};
    entry.key_hash = s.meta.key_hash;
    entry.off_old = *off;
    entry.off_new = 0;
    entry.mark = false;
    dir_.write(s.slot, entry);
    dir_.persist(s.slot);
  }
  // Lost / deleted keys: clear their entries so probing stays correct
  // (key_hash kept, offsets zeroed — the slot still terminates probes).
  for (std::size_t slot = 0; slot < dir_.bucket_count(); ++slot) {
    kv::HashDir::Entry entry = dir_.read(slot);
    if (entry.empty()) continue;
    const bool rebuilt =
        std::any_of(survivors.begin(), survivors.end(),
                    [&](const Survivor& s) { return s.slot == slot; });
    if (!rebuilt) {
      entry.off_old = entry.off_new = 0;
      entry.mark = false;
      dir_.write(slot, entry);
      dir_.persist(slot);
    }
  }

  // Old long-running actors (background verifier, a cleaning round caught
  // mid-flight by the crash) terminate at their next resumption; the
  // restarted server gets a fresh verifier.
  ++epoch_;
  sim_.spawn(background_loop());

  crashed_ = false;
  return report;
}

// ----------------------------------------------------------------- client

EFactoryClient::EFactoryClient(EFactoryStore& store,
                               const ClientOptions& options)
    : KvClient(store.simulator(), options),
      store_(store),
      conn_(store.simulator(), store.fabric(), store.node(),
            store.directory(), store.next_qp_id(), &metrics_, &recorder_),
      hybrid_(options.read_mode != ReadMode::kRpcOnly) {
  // The tracker only informs the hybrid fast-path choice, so an RPC-only
  // ("w/o hr") client never builds one even when the knob is on.
  if (options.adaptive.enabled && hybrid_) {
    adaptive_ =
        std::make_unique<AdaptiveReadTracker>(options.adaptive, metrics_);
  }
}

sim::Task<Status> EFactoryClient::put_attempt(Bytes key, Bytes value) {
  ++stats_.puts;
  TRACE_SPAN(tracer_, "put.total");
  // Client computes the CRC that rides in the alloc request.
  metrics::Span crc_span{tracer_, "put.crc"};
  co_await sim::delay(store_.simulator(),
                      store_.config().crc.cost(value.size()));
  crc_span.finish();
  const std::uint64_t key_hash = kv::hash_key(key);
  AllocRequest req;
  req.klen = static_cast<std::uint32_t>(key.size());
  req.vlen = static_cast<std::uint32_t>(value.size());
  req.crc = kv::object_crc(key_hash, req.klen, req.vlen, value);
  req.key = key;
  req.want_hint = adaptive_ != nullptr;

  metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
  const Expected<Bytes> raw = co_await conn_.call_timeout(
      kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
  alloc_span.finish();
  if (!raw) co_return raw.status();
  const AllocResponse resp = AllocResponse::decode(*raw);
  if (resp.status != StatusCode::kOk) co_return Status{resp.status};
  if (adaptive_ != nullptr && resp.carry_hint) {
    // Our own overwrite re-opens the not-yet-durable window for this key:
    // lease the bucket RPC-first until the server's estimate expires.
    adaptive_->note_hint(key_hash, resp.durable_eta, sim_.now(),
                         resp.object_off);
  }
  // Binds this op to its object offset; the exporter joins this against
  // the verifier's later kFlagSet on the same offset (durability arrow).
  recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);

  // One-sided transfer of the value into the returned region.
  const MemOffset value_off = resp.object_off +
                              kv::ObjectLayout::kHeaderSize + key.size() -
                              store_.pool_a().base();
  metrics::Span write_span{tracer_, "put.data_write"};
  const Expected<Unit> wr =
      co_await conn_.qp().write(store_.pool_rkey(), value_off, value);
  write_span.finish();
  co_return wr.status();
}

sim::Task<std::vector<Status>> EFactoryClient::put_batch_attempt(
    std::vector<PutOp>& ops, const std::vector<std::uint32_t>& op_ids) {
  TRACE_SPAN(tracer_, "put_batch.total");
  // One CRC pass over every member's value before the shared alloc RPC.
  metrics::Span crc_span{tracer_, "put.crc"};
  SimDuration crc_cost = 0;
  for (const PutOp& op : ops) {
    crc_cost += store_.config().crc.cost(op.value.size());
  }
  co_await sim::delay(store_.simulator(), crc_cost);
  crc_span.finish();

  BatchAllocRequest breq;
  breq.items.reserve(ops.size());
  for (const PutOp& op : ops) {
    ++stats_.puts;
    AllocRequest item;
    item.klen = static_cast<std::uint32_t>(op.key.size());
    item.vlen = static_cast<std::uint32_t>(op.value.size());
    item.crc =
        kv::object_crc(kv::hash_key(op.key), item.klen, item.vlen, op.value);
    item.key = op.key;
    item.want_hint = adaptive_ != nullptr;
    breq.items.push_back(std::move(item));
  }

  // ONE alloc RPC reserves log space for the whole batch.
  metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
  const Expected<Bytes> raw = co_await conn_.call_timeout(
      kAllocBatch, breq.encode(), options_.retry.rpc_timeout_ns);
  alloc_span.finish();
  if (!raw) co_return std::vector<Status>(ops.size(), raw.status());
  const BatchAllocResponse bresp = BatchAllocResponse::decode(*raw);
  EFAC_CHECK_MSG(bresp.items.size() == ops.size(),
                 "batch alloc: response/request size mismatch");

  // Payload writes go out as one doorbell-coalesced burst: the head WR
  // pays the full post overhead, later entries only the doorbell cost.
  // Per-QP FIFO ordering means awaiting the latest completion instant
  // covers the whole burst. With an armed fault injector the WRs are
  // awaited individually instead, so each member sees its own
  // tear/lost-completion outcome.
  const bool faultable = store_.injector().enabled();
  std::vector<Status> out(ops.size());
  metrics::Span write_span{tracer_, "put.data_write"};
  SimTime last_done = 0;
  bool head = true;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    recorder_.set_current(op_ids[i]);
    const AllocResponse& resp = bresp.items[i];
    if (resp.status != StatusCode::kOk) {
      out[i] = Status{resp.status};
      continue;
    }
    if (adaptive_ != nullptr && resp.carry_hint) {
      adaptive_->note_hint(kv::hash_key(ops[i].key), resp.durable_eta,
                           sim_.now(), resp.object_off);
    }
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
    const MemOffset value_off = resp.object_off +
                                kv::ObjectLayout::kHeaderSize +
                                ops[i].key.size() - store_.pool_a().base();
    if (faultable) {
      const Expected<Unit> wr = co_await conn_.qp().write(
          store_.pool_rkey(), value_off, ops[i].value);
      out[i] = wr.status();
      continue;
    }
    const Expected<SimTime> done =
        head ? conn_.qp().post_write(store_.pool_rkey(), value_off,
                                     ops[i].value)
             : conn_.qp().post_write_coalesced(store_.pool_rkey(), value_off,
                                               ops[i].value);
    head = false;
    if (!done) {
      out[i] = done.status();
      continue;
    }
    last_done = std::max(last_done, *done);
  }
  recorder_.set_current(op_ids[0]);
  if (last_done > store_.simulator().now()) {
    co_await sim::delay(store_.simulator(),
                        last_done - store_.simulator().now());
  }
  write_span.finish();
  co_return out;
}

sim::Task<Expected<Bytes>> EFactoryClient::read_object_at(
    MemOffset off, std::size_t klen, std::size_t vlen,
    std::uint64_t expect_hash, bool require_flag, bool* tombstoned) {
  const std::size_t total = kv::ObjectLayout::total_size(klen, vlen);
  // One-sided object reads race with server writes and other clients' DMA
  // by design. What makes them safe differs by path: the optimistic read
  // trusts nothing until the durability flag says the bytes are immutable
  // and persisted; the post-RPC read holds a server-verified location and
  // re-validates the header against the expected identity.
  analysis::AccessGuard read_guard(
      checker_,
      require_flag ? analysis::Guard::kDurabilityFlag
                   : analysis::Guard::kMetaRevalidate,
      require_flag ? "efactory.get.flagged_read" : "efactory.get.located_read");
  metrics::Span read_span{tracer_, "get.object_read"};
  const Expected<Bytes> raw = co_await conn_.qp().read(
      store_.pool_rkey(), off - store_.pool_a().base(), total);
  read_span.finish();
  if (!raw) co_return raw.status();
  co_return decode_object(*raw, klen, vlen, expect_hash, require_flag,
                          tombstoned);
}

Expected<Bytes> EFactoryClient::decode_object(const Bytes& raw,
                                              std::size_t klen,
                                              std::size_t vlen,
                                              std::uint64_t expect_hash,
                                              bool require_flag,
                                              bool* tombstoned) {
  const kv::ObjectMeta meta = kv::ObjectLayout::decode_header(raw);
  if (meta.key_hash == expect_hash && meta.valid && meta.tombstone) {
    // Tombstones are server-written and persisted before being indexed,
    // so observing one is conclusive even without the durability flag.
    if (tombstoned != nullptr) *tombstoned = true;
    return Status{StatusCode::kNotFound, "deleted"};
  }
  if (meta.key_hash != expect_hash || !meta.valid || meta.klen != klen ||
      meta.vlen != vlen) {
    return Status{StatusCode::kNotFound, "object does not match"};
  }
  if (require_flag) {
    const std::uint64_t flag =
        load_u64_le(raw.data() + kv::ObjectLayout::flag_offset(klen, vlen));
    if (flag != 1) {
      return Status{StatusCode::kUnavailable, "not yet durable"};
    }
  }
  return Bytes(raw.begin() + kv::ObjectLayout::kHeaderSize + klen,
               raw.begin() + kv::ObjectLayout::kHeaderSize + klen + vlen);
}

sim::Task<Status> EFactoryClient::del_attempt(Bytes key) {
  GetLocRequest req;
  req.key = std::move(key);
  const Expected<Bytes> raw = co_await conn_.call_timeout(
      kDelete, req.encode(), options_.retry.rpc_timeout_ns);
  if (!raw) co_return raw.status();
  co_return Status{decode_status(*raw)};
}

sim::Task<Expected<Bytes>> EFactoryClient::get_attempt(Bytes key) {
  ++stats_.gets;
  TRACE_SPAN(tracer_, "get.total");
  const std::uint64_t key_hash = kv::hash_key(key);

  // A hedged locate RPC raced against the speculative pair READ below:
  // abandoned if the speculation holds, awaited by the fallback otherwise.
  std::optional<rpc::Connection::PendingCall> hedge;

  // Why this GET left the fast path, for the flight recorder. The default
  // covers the RPC-only ablation and clients without a size hint.
  trace::GetPath fallback = trace::GetPath::kRpcOnlyMode;
  if (hybrid_ && store_.clients_use_rpc()) {
    fallback = trace::GetPath::kCleaningActive;
  }

  // Adaptive routing: a key bucket that repeatedly found the durability
  // flag unset — or whose own PUT ack leased it RPC-first — skips the
  // doomed one-sided attempt entirely (docs/ADAPTIVE_READ.md).
  const bool fast_eligible =
      hybrid_ && !store_.clients_use_rpc() && vlen_hint_ > 0;
  AdaptiveRoute route = AdaptiveRoute::kOneSided;
  if (fast_eligible && adaptive_ != nullptr) {
    route = adaptive_->route(key_hash, sim_.now());
    if (route == AdaptiveRoute::kRpcFirst) {
      fallback = trace::GetPath::kAdaptiveRpcFirst;
    } else if (route == AdaptiveRoute::kHintLease) {
      fallback = trace::GetPath::kDurabilityHint;
    }
  }

  // ---- optimistic pure-RDMA path -------------------------------------
  if (fast_eligible && route != AdaptiveRoute::kRpcFirst &&
      route != AdaptiveRoute::kHintLease) {
    fallback = trace::GetPath::kEntryMiss;  // until proven otherwise
    // Client-side linear probing for displaced keys, then the object read.
    constexpr std::size_t kClientProbeLimit = 16;
    std::size_t slot = store_.dir().ideal_slot(key_hash);
    // Speculative pair READ: when the tracker knows which offset this key
    // was last proved durable at, the ideal-slot entry and the object at
    // that offset are fetched in ONE doorbelled round trip. If the entry
    // still points there, the GET completes in half the fast path's usual
    // latency; if the key moved (or is displaced), only the prediction's
    // response bytes were wasted and the serial path takes over with the
    // entry already in hand.
    const MemOffset spec_off =
        adaptive_ != nullptr ? adaptive_->predicted_off(key_hash) : 0;
    std::optional<Bytes> spec_bytes;
    if (adaptive_ != nullptr) {
      // Hedged GET: the fallback locate RPC departs NOW, concurrently
      // with the optimistic READs. If the attempt lands (flag set), the
      // response is abandoned unread and the server did a cheap flag-set
      // locate for nothing; if it doesn't, the RPC has been cooking at
      // the server since t0 and the serialization penalty of a failed
      // optimistic attempt disappears.
      GetLocRequest hedge_req;
      hedge_req.key = key;
      hedge_req.want_hint = true;
      hedge = conn_.call_begin(kGetLoc, hedge_req.encode());
    }
    for (std::size_t probe = 0; probe < kClientProbeLimit; ++probe) {
      const bool speculate = probe == 0 && spec_off != 0;
      // Index entries are read racily and re-validated by key hash; a torn
      // or stale entry at worst sends us to the RPC fallback.
      analysis::AccessGuard entry_guard(checker_,
                                        analysis::Guard::kMetaRevalidate,
                                        "efactory.get.entry_read");
      std::optional<Expected<Bytes>> raw_opt;
      if (speculate) {
        // The object half is only trusted below once the entry confirms
        // the prediction *and* the durability flag is set.
        analysis::AccessGuard spec_guard(checker_,
                                         analysis::Guard::kDurabilityFlag,
                                         "efactory.get.spec_read");
        metrics::Span spec_span{tracer_, "get.spec_read"};
        auto pair = co_await conn_.qp().read_pair(
            store_.index_rkey(), store_.dir().entry_offset(slot),
            kv::HashDir::kEntrySize, store_.pool_rkey(),
            spec_off - store_.pool_a().base(),
            kv::ObjectLayout::total_size(klen_hint_, vlen_hint_));
        spec_span.finish();
        raw_opt.emplace(std::move(pair.first));
        if (pair.second) spec_bytes = std::move(*pair.second);
      } else {
        metrics::Span entry_span{tracer_, "get.entry_read"};
        raw_opt.emplace(co_await conn_.qp().read(
            store_.index_rkey(), store_.dir().entry_offset(slot),
            kv::HashDir::kEntrySize));
        entry_span.finish();
      }
      const Expected<Bytes>& raw = *raw_opt;
      if (!raw) {
        fallback = trace::GetPath::kReadError;
        break;
      }
      const kv::HashDir::Entry entry = kv::HashDir::decode(*raw);
      const bool spec_held = speculate && spec_bytes.has_value() &&
                             entry.key_hash == key_hash &&
                             entry.current() == spec_off;
      if (speculate && adaptive_ != nullptr) {
        adaptive_->note_spec_pair(spec_held);
      }
      if (entry.empty()) break;
      if (entry.key_hash == key_hash) {
        if (entry.current() != 0) {
          if (!spec_held && adaptive_ != nullptr &&
              adaptive_->stale_version(key_hash, entry.current(),
                                       sim_.now())) {
            // The entry points at a different object than the one this
            // client last proved durable: the key was overwritten since,
            // and the fresh version is odds-on still inside the verifier
            // window. Skip the full-width object READ we were about to
            // waste — the locate RPC below answers authoritatively, and
            // its feedback re-learns the new offset once it turns durable.
            adaptive_->note_stale_skip();
            fallback = trace::GetPath::kStaleVersion;
            break;
          }
          bool tombstoned = false;
          std::optional<Expected<Bytes>> value_opt;
          if (spec_held) {
            value_opt.emplace(decode_object(*spec_bytes, klen_hint_,
                                            vlen_hint_, key_hash,
                                            /*require_flag=*/true,
                                            &tombstoned));
          } else {
            value_opt.emplace(co_await read_object_at(
                entry.current(), klen_hint_, vlen_hint_, key_hash,
                /*require_flag=*/true, &tombstoned));
          }
          Expected<Bytes>& value = *value_opt;
          if (value || tombstoned) {
            // Flag set (or conclusive tombstone): the fast path works for
            // this bucket again — one success re-arms it entirely (and
            // records which version was durable, arming the stale-version
            // check for the key's next overwrite).
            if (adaptive_ != nullptr) {
              adaptive_->note_fast_success(key_hash, entry.current(),
                                           sim_.now());
            }
            if (hedge) {
              conn_.call_abandon(std::move(*hedge));
              adaptive_->note_hedge(/*wasted=*/true);
            }
            ++stats_.gets_pure_rdma;
            recorder_.emit(
                trace::EventType::kGetPath,
                static_cast<std::uint8_t>(trace::GetPath::kFastOneSided));
            if (value) co_return std::move(value).take();
            co_return Status{StatusCode::kNotFound, "deleted"};
          }
          if (value.code() == StatusCode::kUnavailable) {
            fallback = trace::GetPath::kFlagUnset;
            // The doomed case the tracker predicts: we paid the full
            // one-sided round trip only to find the flag unset.
            if (adaptive_ != nullptr) adaptive_->note_flag_miss(key_hash, entry.current());
          } else if (value.code() == StatusCode::kTimeout) {
            fallback = trace::GetPath::kReadError;
          }
        }
        break;  // found but not yet durable (or empty): RPC fallback
      }
      slot = (slot + 1) & (store_.dir().bucket_count() - 1);
    }
  }

  // ---- RPC+RDMA read fallback ----------------------------------------
  ++stats_.gets_rpc_path;
  recorder_.emit(trace::EventType::kGetPath,
                 static_cast<std::uint8_t>(fallback));
  metrics::Span rpc_span{tracer_, "get.rpc_fallback"};
  Expected<Bytes> raw = Status{StatusCode::kTimeout, "unset"};
  if (hedge) {
    // The locate RPC has been in flight since before the pair READ was
    // posted; most of its round trip is already behind us.
    adaptive_->note_hedge(/*wasted=*/false);
    raw = co_await conn_.call_finish(std::move(*hedge),
                                     options_.retry.rpc_timeout_ns);
  } else {
    GetLocRequest req;
    req.key = key;
    req.want_hint = adaptive_ != nullptr;
    raw = co_await conn_.call_timeout(kGetLoc, req.encode(),
                                      options_.retry.rpc_timeout_ns);
  }
  rpc_span.finish();
  if (!raw) co_return raw.status();
  const LocResponse resp = LocResponse::decode(*raw);
  // Locate-reply feedback: every RPC-path GET tells the tracker what a
  // one-sided read at that moment would have found, so buckets routed
  // RPC-first re-arm the instant the server sees the flag set — without
  // risking a wasted optimistic READ to find out (docs/ADAPTIVE_READ.md).
  if (adaptive_ != nullptr && resp.carry_hint &&
      resp.status == StatusCode::kOk) {
    adaptive_->note_loc_feedback(key_hash, resp.was_durable,
                                 resp.object_off, sim_.now());
  }
  if (resp.status != StatusCode::kOk) co_return Status{resp.status};
  co_return co_await read_object_at(resp.object_off, resp.klen, resp.vlen,
                                    key_hash, /*require_flag=*/false);
}

}  // namespace efac::stores
