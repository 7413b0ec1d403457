#include "stores/baselines.hpp"

#include "common/contracts.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "analysis/checker.hpp"

namespace efac::stores {

namespace {

/// Extract the value from a raw one-sided object read, validating identity.
Expected<Bytes> value_from_raw(const Bytes& raw, std::size_t klen,
                               std::size_t vlen, std::uint64_t expect_hash) {
  const kv::ObjectMeta meta = kv::ObjectLayout::decode_header(raw);
  if (meta.key_hash != expect_hash || !meta.valid || meta.klen != klen ||
      meta.vlen != vlen) {
    return Status{StatusCode::kNotFound, "object does not match"};
  }
  return Bytes(raw.begin() + kv::ObjectLayout::kHeaderSize + klen,
               raw.begin() + kv::ObjectLayout::kHeaderSize + klen + vlen);
}

}  // namespace

Expected<Bytes> recover_via_dir(nvm::Arena& arena, kv::HashDir& dir,
                                StoreBase& store, BytesView key) {
  // Recovery reads arbitrary (possibly torn) bytes left behind by clients;
  // every candidate is CRC-re-verified, which is the recovery-scan guard.
  analysis::Checker* const checker = store.checker();
  analysis::ActorScope scope(
      checker, checker != nullptr ? checker->server_actor() : 0);
  analysis::AccessGuard guard(checker, analysis::Guard::kRecoveryScan,
                              "recover.dir_scan");
  const std::uint64_t key_hash = kv::hash_key(key);
  const Expected<std::size_t> slot = dir.find(key_hash);
  if (!slot) return Status{StatusCode::kNotFound};
  const kv::HashDir::Entry entry = dir.read(*slot);
  for (const StoreBase::Version& v :
       store.versions_newest_first(entry.off_old, entry.off_new)) {
    kv::ObjectRef obj{arena, v.off};
    const kv::ObjectMeta meta = obj.read_header();
    if (!meta.valid || meta.key_hash != key_hash) continue;
    if (obj.verify_crc()) return obj.read_value(meta.klen, meta.vlen);
  }
  return Status{StatusCode::kCorrupt, "no intact version survives"};
}

// ===================================================================== SAW

SawStore::SawStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config, kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets) {}

sim::Task<void> SawStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kAlloc) {
    const AllocRequest alloc = AllocRequest::decode(req.args);
    const std::uint64_t key_hash = kv::hash_key(alloc.key);
    std::size_t probes = 0;
    AllocResponse resp;
    const Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
    SimDuration cost = probes * config_.cpu.hash_probe_ns;
    if (!slot) {
      resp.status = slot.status().code();
    } else {
      const kv::HashDir::Entry entry = dir_.read(*slot);
      const Expected<MemOffset> off = pool_a().allocate(
          kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
      if (!off) {
        resp.status = StatusCode::kOutOfSpace;
      } else {
        // SAW updates metadata only at the durability point: the header is
        // staged, but the hash entry is NOT indexed yet.
        cost += place_object_metadata(*off, alloc, entry.current(),
                                      /*persist=*/false);
        resp.object_off = *off;
      }
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
  } else if (req.opcode == kPersist) {
    const PersistRequest persist = PersistRequest::decode(req.args);
    // Validate before trusting a client-supplied offset: a buggy (or
    // malicious) client must get an error back, not crash the server.
    kv::ObjectMeta meta;
    if (header_readable(persist.object_off)) {
      meta = kv::ObjectRef{*arena_, persist.object_off}.read_header();
    }
    if (meta.key_hash == 0 || !object_span_ok(persist.object_off, meta) ||
        meta.klen != persist.klen || meta.vlen != persist.vlen) {
      EFAC_NO_CLAIM("saw.persist.bad_request");
      co_await charge(config_.cpu.send_post_ns);
      rpc::Replier{directory_, req.src_qp, req.call_id}.reply(
          encode_status(StatusCode::kInvalidArgument));
      co_return;
    }
    const std::size_t total =
        kv::ObjectLayout::total_size(persist.klen, persist.vlen);
    arena_->flush(persist.object_off, total);
    // Object flush issued here; the fence cost is charged with `cost`
    // before the reply is posted, so the ack orders after the drain.
    EFAC_PERSISTS("saw.persist.flush_fence");
    ++stats_.persists;
    SimDuration cost =
        arena_->cost().flush_cost(total) + arena_->cost().fence_ns;
    // Now — and only now — expose the version through the index.
    std::size_t probes = 0;
    const Expected<std::size_t> slot = dir_.find(meta.key_hash, &probes);
    cost += probes * config_.cpu.hash_probe_ns;
    StatusCode status = StatusCode::kOk;
    if (slot) {
      kv::HashDir::Entry entry = dir_.read(*slot);
      entry.off_old = persist.object_off;
      entry.mark = false;
      dir_.write(*slot, entry);
      dir_.persist(*slot);
      cost += arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
              arena_->cost().fence_ns;
    } else {
      status = StatusCode::kInternal;
    }
    // The OK ack is SAW's durability promise: value landed (RC ordering
    // put the persist SEND behind the payload WRITE) and flush completed.
    if (status == StatusCode::kOk) {
      assert_object_durable(checker_.get(), persist.object_off, total,
                            "saw.persist_ack");
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    EFAC_ACK_SITE("saw.persist_ack");
    rpc::Replier{directory_, req.src_qp, req.call_id}.reply(
        encode_status(status));
  } else {
    EFAC_UNREACHABLE("SAW: unexpected opcode");
  }
}

Expected<Bytes> SawStore::recover_get(BytesView key) {
  return recover_via_dir(*arena_, dir_, *this, key);
}

namespace {

/// Shared "entry read + object read" GET used by SAW, IMM, InPlace, and
/// CA. These systems trust the index (or, for CA, simply hope), so no
/// verification happens client-side. Each subclass states how its object
/// read tolerates racing writers: SAW/IMM index only after the persist
/// point and value_from_raw re-validates the header (kMetaRevalidate);
/// CA/InPlace give no such guarantee and declare the race (kDeclaredRacy
/// — torn reads are exactly the flaw the motivation suite demonstrates).
class TwoReadClient : public KvClient {
 public:
  TwoReadClient(StoreBase& store, kv::HashDir& dir,
                const ClientOptions& options, analysis::Guard object_guard,
                const char* entry_site, const char* object_site)
      : KvClient(store.simulator(), options),
        store_(store),
        dir_(dir),
        conn_(store.simulator(), store.fabric(), store.node(),
              store.directory(), store.next_qp_id(), &metrics_, &recorder_),
        object_guard_(object_guard),
        entry_site_(entry_site),
        object_site_(object_site) {}

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    TRACE_SPAN(tracer_, "get.total");
    const std::uint64_t key_hash = kv::hash_key(key);
    // Client-side linear probing: a displaced key costs extra one-sided
    // entry reads, exactly as open-addressed RDMA-KV clients pay.
    constexpr std::size_t kClientProbeLimit = 16;
    kv::HashDir::Entry entry;
    bool found = false;
    std::size_t slot = dir_.ideal_slot(key_hash);
    {
      // Entry reads race with the server's index updates; the decoded
      // entry is validated against the key hash before it is trusted.
      analysis::AccessGuard entry_guard(
          checker_, analysis::Guard::kMetaRevalidate, entry_site_);
      for (std::size_t probe = 0; probe < kClientProbeLimit; ++probe) {
        metrics::Span entry_span{tracer_, "get.entry_read"};
        const Expected<Bytes> raw_entry =
            co_await conn_.qp().read(store_.index_rkey(),
                                     dir_.entry_offset(slot),
                                     kv::HashDir::kEntrySize);
        entry_span.finish();
        if (!raw_entry) co_return raw_entry.status();
        entry = kv::HashDir::decode(*raw_entry);
        if (entry.key_hash == key_hash) {
          found = true;
          break;
        }
        if (entry.empty()) break;
        slot = (slot + 1) & (dir_.bucket_count() - 1);
      }
    }
    if (!found || entry.current() == 0) {
      co_return Status{StatusCode::kNotFound};
    }
    const std::size_t total =
        kv::ObjectLayout::total_size(klen_hint_, vlen_hint_);
    metrics::Span read_span{tracer_, "get.object_read"};
    analysis::AccessGuard read_guard(checker_, object_guard_, object_site_);
    const Expected<Bytes> raw_obj = co_await conn_.qp().read(
        store_.pool_rkey(), entry.current() - store_.pool_a().base(), total);
    read_span.finish();
    if (!raw_obj) co_return raw_obj.status();
    ++stats_.gets_pure_rdma;
    recorder_.emit(trace::EventType::kGetPath,
                   static_cast<std::uint8_t>(trace::GetPath::kFastOneSided));
    co_return value_from_raw(*raw_obj, klen_hint_, vlen_hint_, key_hash);
  }

 protected:
  StoreBase& store_;
  kv::HashDir& dir_;
  rpc::Connection conn_;
  analysis::Guard object_guard_;
  const char* entry_site_;
  const char* object_site_;
};

class SawClient final : public TwoReadClient {
 public:
  SawClient(SawStore& store, const ClientOptions& options)
      : TwoReadClient(store, store.dir(), options,
                      analysis::Guard::kMetaRevalidate, "saw.get.entry_read",
                      "saw.get.object_read") {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    AllocRequest req;
    req.klen = static_cast<std::uint32_t>(key.size());
    req.vlen = static_cast<std::uint32_t>(value.size());
    // SAW does not rely on checksums; the field is filled (free of virtual
    // time) so that recovery inspection can validate data in tests.
    req.crc = kv::object_crc(kv::hash_key(key), req.klen, req.vlen, value);
    req.key = key;
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return raw.status();
    const AllocResponse resp = AllocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);

    // WRITE posted fire-and-forget, then the persist SEND on the same QP:
    // RC ordering delivers the SEND only after the payload has landed.
    const MemOffset value_off = resp.object_off +
                                kv::ObjectLayout::kHeaderSize + key.size() -
                                store_.pool_a().base();
    const Expected<SimTime> posted =
        conn_.qp().post_write(store_.pool_rkey(), value_off, value);
    if (!posted) co_return posted.status();
    PersistRequest persist;
    persist.object_off = resp.object_off;
    persist.klen = req.klen;
    persist.vlen = req.vlen;
    // The persist RPC rides behind the posted WRITE, so its duration
    // covers data landing + server flush + ack — SAW's durability wait.
    metrics::Span persist_span{tracer_, "put.persist_rpc"};
    const Expected<Bytes> ack = co_await conn_.call_timeout(
        kPersist, persist.encode(), options_.retry.rpc_timeout_ns);
    persist_span.finish();
    if (!ack) co_return ack.status();
    co_return Status{decode_status(*ack)};
  }
};

}  // namespace

std::unique_ptr<KvClient> SawStore::make_client(ClientOptions options) {
  return std::make_unique<SawClient>(*this, options);
}

// ===================================================================== IMM

void ImmAckHub::arm(std::uint32_t token, sim::OneShot<StatusCode>* slot,
                    SimDuration timeout_ns) {
  EFAC_CHECK(waiting_.emplace(token, slot).second);
  if (timeout_ns > 0) {
    sim_.call_after(timeout_ns, [this, token] {
      const auto it = waiting_.find(token);
      if (it == waiting_.end() || it->second->ready()) return;
      sim::OneShot<StatusCode>* s = it->second;
      waiting_.erase(it);
      s->set(StatusCode::kTimeout);
    });
  }
}

void ImmAckHub::complete(std::uint32_t token, StatusCode status) {
  const SimDuration ack_latency =
      fabric_.one_way() + fabric_.config().completion_ns;
  // Look the waiter up when the ack *lands*, not when it is sent: the
  // client may time out and free its slot while the ack is in flight.
  sim_.call_after(ack_latency, [this, token, status] {
    const auto it = waiting_.find(token);
    if (it == waiting_.end()) return;  // client gave up / crashed
    sim::OneShot<StatusCode>* slot = it->second;
    waiting_.erase(it);
    if (!slot->ready()) slot->set(status);
  });
}

ImmStore::ImmStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config, kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets),
      ack_hub_(sim_, fabric_) {}

sim::Task<void> ImmStore::handle(rdma::InboundMessage msg) {
  // Consuming a write_with_imm completion is lighter than parsing a full
  // request: no payload to stage, just a CQE with a 32-bit immediate.
  co_await charge(msg.has_imm ? config_.cpu.recv_handling_batched_ns
                              : config_.recv_cost());
  if (msg.has_imm) {
    // Completion of a client's write_with_imm: flush, index, ack.
    const auto it = pending_.find(msg.imm);
    if (it == pending_.end()) co_return;  // stale token
    const PendingWrite pw = it->second;
    pending_.erase(it);
    const std::size_t total = kv::ObjectLayout::total_size(pw.klen, pw.vlen);
    arena_->flush(pw.object_off, total);
    // Flush issued; fence cost charged with `cost` before the ack leaves.
    EFAC_PERSISTS("imm.completion.flush_fence");
    ++stats_.persists;
    SimDuration cost =
        arena_->cost().flush_cost(total) + arena_->cost().fence_ns;
    const kv::ObjectMeta meta =
        kv::ObjectRef{*arena_, pw.object_off}.read_header();
    std::size_t probes = 0;
    StatusCode status = StatusCode::kOk;
    if (const Expected<std::size_t> slot = dir_.find(meta.key_hash, &probes)) {
      kv::HashDir::Entry entry = dir_.read(*slot);
      entry.off_old = pw.object_off;
      entry.mark = false;
      dir_.write(*slot, entry);
      dir_.persist(*slot);
      cost += probes * config_.cpu.hash_probe_ns +
              arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
              arena_->cost().fence_ns;
    } else {
      status = StatusCode::kInternal;
    }
    // The OK ack is IMM's durability promise: the immediate arrived after
    // the payload (RC ordering) and the flush above completed.
    if (status == StatusCode::kOk) {
      assert_object_durable(checker_.get(), pw.object_off, total,
                            "imm.durability_ack");
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    EFAC_ACK_SITE("imm.durability_ack");
    ack_hub_.complete(msg.imm, status);
    co_return;
  }

  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kAllocBatch) {
    // Batch-reserve: one receive, one reply, one charge for the whole
    // batch; each member stages its own pending-write token.
    const BatchAllocRequest batch = BatchAllocRequest::decode(req.args);
    BatchAllocResponse out;
    out.items.reserve(batch.items.size());
    SimDuration cost = 0;
    for (const AllocRequest& alloc : batch.items) {
      out.items.push_back(alloc_reserve(alloc, cost));
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    rpc::Replier{directory_, req.src_qp, req.call_id}.reply(out.encode());
    co_return;
  }
  EFAC_CHECK_MSG(req.opcode == kAlloc, "IMM: unexpected opcode");
  const AllocRequest alloc = AllocRequest::decode(req.args);
  SimDuration cost = 0;
  const AllocResponse resp = alloc_reserve(alloc, cost);
  co_await charge(cost + config_.cpu.send_post_ns);
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
}

AllocResponse ImmStore::alloc_reserve(const AllocRequest& alloc,
                                      SimDuration& cost) {
  const std::uint64_t key_hash = kv::hash_key(alloc.key);
  std::size_t probes = 0;
  AllocResponse resp;
  const Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
  cost += probes * config_.cpu.hash_probe_ns;
  if (!slot) {
    resp.status = slot.status().code();
  } else {
    const kv::HashDir::Entry entry = dir_.read(*slot);
    const Expected<MemOffset> off = pool_a().allocate(
        kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
    if (!off) {
      resp.status = StatusCode::kOutOfSpace;
    } else {
      cost += place_object_metadata(*off, alloc, entry.current(),
                                    /*persist=*/false);
      resp.object_off = *off;
      resp.token = next_token_++;
      pending_.emplace(resp.token,
                       PendingWrite{*off, alloc.klen, alloc.vlen});
      // Durability-hint protocol support (adaptive eFactory clients set
      // want_hint; IMM's own clients never do): eta 0 = "no doomed
      // window to predict" — durability rides the IMM ack, not a
      // background verifier.
      if (alloc.want_hint) {
        resp.carry_hint = true;
        ++stats_.hints_issued;
      }
    }
  }
  return resp;
}

Expected<Bytes> ImmStore::recover_get(BytesView key) {
  return recover_via_dir(*arena_, dir_, *this, key);
}

namespace {

class ImmClient final : public TwoReadClient {
 public:
  ImmClient(ImmStore& store, const ClientOptions& options)
      : TwoReadClient(store, store.dir(), options,
                      analysis::Guard::kMetaRevalidate, "imm.get.entry_read",
                      "imm.get.object_read"),
        imm_store_(store) {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    AllocRequest req;
    req.klen = static_cast<std::uint32_t>(key.size());
    req.vlen = static_cast<std::uint32_t>(value.size());
    req.crc = kv::object_crc(kv::hash_key(key), req.klen, req.vlen,
                             value);  // bookkeeping only, no time charged
    req.key = key;
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return raw.status();
    const AllocResponse resp = AllocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);

    sim::OneShot<StatusCode> ack{store_.simulator()};
    // The durability ack itself can be lost (stale token, injected drop of
    // the IMM notification): bound the wait by the same RPC timeout.
    imm_store_.ack_hub().arm(resp.token, &ack,
                             options_.retry.rpc_timeout_ns);
    const MemOffset value_off = resp.object_off +
                                kv::ObjectLayout::kHeaderSize + key.size() -
                                store_.pool_a().base();
    metrics::Span write_span{tracer_, "put.data_write"};
    const Expected<Unit> wr = co_await conn_.qp().write_with_imm(
        store_.pool_rkey(), value_off, value, resp.token);
    write_span.finish();
    if (!wr) {
      imm_store_.ack_hub().disarm(resp.token);
      co_return wr.status();
    }
    // Durability point: the server flushed and acked.
    metrics::Span ack_span{tracer_, "put.durability_ack"};
    const StatusCode status = co_await ack.wait();
    ack_span.finish();
    co_return Status{status};
  }

 protected:
  [[nodiscard]] bool has_batch_put() const noexcept override { return true; }

  /// Batch-reserve PUT: one kAllocBatch RPC stages every member's token,
  /// the write_with_imm WRs go out as one doorbell-coalesced burst, and
  /// the per-member durability acks are awaited afterwards (they carry
  /// the per-op outcome, so per-op statuses survive coalescing). With an
  /// armed fault injector the writes are awaited individually instead so
  /// each member sees its own tear/loss outcome.
  sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>& ops,
      const std::vector<std::uint32_t>& op_ids) override {
    TRACE_SPAN(tracer_, "put_batch.total");
    BatchAllocRequest breq;
    breq.items.reserve(ops.size());
    for (const PutOp& op : ops) {
      ++stats_.puts;
      AllocRequest item;
      item.klen = static_cast<std::uint32_t>(op.key.size());
      item.vlen = static_cast<std::uint32_t>(op.value.size());
      item.crc = kv::object_crc(kv::hash_key(op.key), item.klen, item.vlen,
                                op.value);  // bookkeeping only
      item.key = op.key;
      breq.items.push_back(std::move(item));
    }
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAllocBatch, breq.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return std::vector<Status>(ops.size(), raw.status());
    const BatchAllocResponse bresp = BatchAllocResponse::decode(*raw);
    EFAC_CHECK_MSG(bresp.items.size() == ops.size(),
                   "batch alloc: response/request size mismatch");

    const bool faultable = store_.injector().enabled();
    std::vector<Status> out(ops.size());
    std::vector<std::unique_ptr<sim::OneShot<StatusCode>>> acks(ops.size());
    metrics::Span write_span{tracer_, "put.data_write"};
    bool head = true;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      recorder_.set_current(op_ids[i]);
      const AllocResponse& resp = bresp.items[i];
      if (resp.status != StatusCode::kOk) {
        out[i] = Status{resp.status};
        continue;
      }
      recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
      acks[i] = std::make_unique<sim::OneShot<StatusCode>>(store_.simulator());
      imm_store_.ack_hub().arm(resp.token, acks[i].get(),
                               options_.retry.rpc_timeout_ns);
      const MemOffset value_off = resp.object_off +
                                  kv::ObjectLayout::kHeaderSize +
                                  ops[i].key.size() - store_.pool_a().base();
      if (faultable) {
        const Expected<Unit> wr = co_await conn_.qp().write_with_imm(
            store_.pool_rkey(), value_off, ops[i].value, resp.token);
        if (!wr) {
          imm_store_.ack_hub().disarm(resp.token);
          acks[i].reset();
          out[i] = wr.status();
        }
        continue;
      }
      const Expected<SimTime> posted = conn_.qp().post_write_with_imm(
          store_.pool_rkey(), value_off, ops[i].value, resp.token,
          /*coalesced=*/!head);
      head = false;
      if (!posted) {
        imm_store_.ack_hub().disarm(resp.token);
        acks[i].reset();
        out[i] = posted.status();
      }
    }
    write_span.finish();
    // Durability point per member: the server flushed and acked.
    metrics::Span ack_span{tracer_, "put.durability_ack"};
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (acks[i] == nullptr) continue;  // alloc or post already failed
      recorder_.set_current(op_ids[i]);
      out[i] = Status{co_await acks[i]->wait()};
    }
    ack_span.finish();
    recorder_.set_current(op_ids[0]);
    co_return out;
  }

 private:
  ImmStore& imm_store_;
};

}  // namespace

std::unique_ptr<KvClient> ImmStore::make_client(ClientOptions options) {
  return std::make_unique<ImmClient>(*this, options);
}

// ==================================================================== Erda

ErdaStore::ErdaStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config,
                kv::ErdaTable::bytes_required(config.hash_buckets)),
      table_(*arena_, 0, config_.hash_buckets, pool_a_->base()) {}

sim::Task<void> ErdaStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kAllocBatch) {
    // Batch-reserve: one receive, one reply, one charge for the batch.
    const BatchAllocRequest batch = BatchAllocRequest::decode(req.args);
    BatchAllocResponse out;
    out.items.reserve(batch.items.size());
    SimDuration cost = 0;
    for (const AllocRequest& alloc : batch.items) {
      out.items.push_back(alloc_reserve(alloc, cost));
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    rpc::Replier{directory_, req.src_qp, req.call_id}.reply(out.encode());
    co_return;
  }
  EFAC_CHECK_MSG(req.opcode == kAlloc, "Erda: unexpected opcode");
  const AllocRequest alloc = AllocRequest::decode(req.args);
  SimDuration cost = 0;
  const AllocResponse resp = alloc_reserve(alloc, cost);
  co_await charge(cost + config_.cpu.send_post_ns);
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
}

AllocResponse ErdaStore::alloc_reserve(const AllocRequest& alloc,
                                       SimDuration& cost) {
  const std::uint64_t key_hash = kv::hash_key(alloc.key);
  AllocResponse resp;
  const Expected<std::size_t> slot = table_.find_or_claim(key_hash);
  // Neighborhood scan plus hopscotch/atomic-region maintenance.
  cost += 2 * config_.cpu.hash_probe_ns + config_.cpu.erda_index_ns;
  if (!slot) {
    resp.status = slot.status().code();
  } else {
    const kv::ErdaTable::Versions versions = table_.read_versions(*slot);
    const Expected<MemOffset> off = pool_a().allocate(
        kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
    if (!off) {
      resp.status = StatusCode::kOutOfSpace;
    } else {
      // No explicit persistence anywhere on Erda's write path.
      cost += place_object_metadata(*off, alloc, versions.cur,
                                    /*persist=*/false);
      table_.push_version(*slot, *off);  // the single atomic index store
      resp.object_off = *off;
      // Hint protocol support, mirroring ImmStore: eta 0 = no estimate
      // (Erda has no background verifier whose lag a client could dodge).
      if (alloc.want_hint) {
        resp.carry_hint = true;
        ++stats_.hints_issued;
      }
    }
  }
  return resp;
}

Expected<Bytes> ErdaStore::recover_get(BytesView key) {
  analysis::ActorScope scope(
      checker_.get(),
      checker_ != nullptr ? checker_->server_actor() : 0);
  analysis::AccessGuard guard(checker_.get(), analysis::Guard::kRecoveryScan,
                              "erda.recover");
  const std::uint64_t key_hash = kv::hash_key(key);
  const Expected<std::size_t> slot = table_.find(key_hash);
  if (!slot) return Status{StatusCode::kNotFound};
  const kv::ErdaTable::Versions versions = table_.read_versions(*slot);
  // Only the latest two versions are recoverable — the 8-byte region holds
  // no more (the limitation eFactory's version list removes).
  for (const MemOffset off : {versions.cur, versions.prev}) {
    if (off == 0 || !header_readable(off)) continue;
    kv::ObjectRef obj{*arena_, off};
    const kv::ObjectMeta meta = obj.read_header();
    if (!object_span_ok(off, meta)) continue;
    if (!meta.valid || meta.key_hash != key_hash) continue;
    if (obj.verify_crc()) return obj.read_value(meta.klen, meta.vlen);
  }
  return Status{StatusCode::kCorrupt, "no intact version in atomic region"};
}

namespace {

class ErdaClient final : public KvClient {
 public:
  ErdaClient(ErdaStore& store, const ClientOptions& options)
      : KvClient(store.simulator(), options),
        store_(store),
        conn_(store.simulator(), store.fabric(), store.node(),
              store.directory(), store.next_qp_id(), &metrics_,
              &recorder_) {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    // The client computes the CRC it embeds in the object.
    metrics::Span crc_span{tracer_, "put.crc"};
    co_await sim::delay(store_.simulator(),
                        store_.config().crc.cost(value.size()));
    crc_span.finish();
    AllocRequest req;
    req.klen = static_cast<std::uint32_t>(key.size());
    req.vlen = static_cast<std::uint32_t>(value.size());
    req.crc = kv::object_crc(kv::hash_key(key), req.klen, req.vlen, value);
    req.key = key;
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return raw.status();
    const AllocResponse resp = AllocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
    const MemOffset value_off = resp.object_off +
                                kv::ObjectLayout::kHeaderSize + key.size() -
                                store_.pool_a().base();
    metrics::Span write_span{tracer_, "put.data_write"};
    const Expected<Unit> wr =
        co_await conn_.qp().write(store_.pool_rkey(), value_off, value);
    write_span.finish();
    co_return wr.status();
  }

 protected:
  [[nodiscard]] bool has_batch_put() const noexcept override { return true; }

  /// Batch-reserve PUT: one combined CRC pass, one kAllocBatch RPC, and a
  /// doorbell-coalesced burst of one-sided value writes (per-item awaited
  /// under an armed fault injector).
  sim::Task<std::vector<Status>> put_batch_attempt(
      std::vector<PutOp>& ops,
      const std::vector<std::uint32_t>& op_ids) override {
    TRACE_SPAN(tracer_, "put_batch.total");
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
      item.crc = kv::object_crc(kv::hash_key(op.key), item.klen, item.vlen,
                                op.value);
      item.key = op.key;
      breq.items.push_back(std::move(item));
    }
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAllocBatch, breq.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return std::vector<Status>(ops.size(), raw.status());
    const BatchAllocResponse bresp = BatchAllocResponse::decode(*raw);
    EFAC_CHECK_MSG(bresp.items.size() == ops.size(),
                   "batch alloc: response/request size mismatch");

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
               : conn_.qp().post_write_coalesced(store_.pool_rkey(),
                                                 value_off, ops[i].value);
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

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    TRACE_SPAN(tracer_, "get.total");
    const std::uint64_t key_hash = kv::hash_key(key);
    kv::ErdaTable& table = store_.table();
    const std::size_t home = table.ideal_slot(key_hash);
    metrics::Span entry_span{tracer_, "get.entry_read"};
    // The neighborhood scan races with the server's atomic-region index
    // stores; scan_neighborhood re-validates hashes before trusting it.
    analysis::AccessGuard hood_guard(
        checker_, analysis::Guard::kMetaRevalidate, "erda.get.entry_read");
    const Expected<Bytes> raw_hood = co_await conn_.qp().read(
        store_.index_rkey(), table.bucket_offset(home),
        kv::ErdaTable::neighborhood_bytes());
    entry_span.finish();
    if (!raw_hood) co_return raw_hood.status();
    const Expected<kv::ErdaTable::Versions> versions =
        kv::ErdaTable::scan_neighborhood(*raw_hood, key_hash,
                                         table.pool_base());
    if (!versions) co_return versions.status();
    ++stats_.gets_pure_rdma;
    recorder_.emit(trace::EventType::kGetPath,
                   static_cast<std::uint8_t>(trace::GetPath::kFastOneSided));

    bool first = true;
    // Erda tolerates reading in-flight writes precisely because every
    // read is CRC-verified before the value is returned (Fig. 2's cost).
    analysis::AccessGuard crc_guard(checker_, analysis::Guard::kCrcVerify,
                                    "erda.get.object_read");
    const std::array<MemOffset, 2> candidates{versions->cur, versions->prev};
    for (const MemOffset off : candidates) {
      if (off == 0) continue;
      if (!first) ++stats_.version_rereads;
      first = false;
      const std::size_t total =
          kv::ObjectLayout::total_size(klen_hint_, vlen_hint_);
      metrics::Span read_span{tracer_, "get.object_read"};
      const Expected<Bytes> raw = co_await conn_.qp().read(
          store_.pool_rkey(), off - store_.pool_a().base(), total);
      read_span.finish();
      if (!raw) continue;
      const kv::ObjectMeta meta = kv::ObjectLayout::decode_header(*raw);
      if (meta.key_hash != key_hash || !meta.valid ||
          meta.klen != klen_hint_ || meta.vlen != vlen_hint_) {
        continue;
      }
      // Erda's client verifies integrity by CRC on EVERY read — the
      // critical-path cost Fig. 2 quantifies.
      ++stats_.client_crc_checks;
      metrics::Span crc_span{tracer_, "get.crc"};
      co_await sim::delay(store_.simulator(),
                          store_.config().crc.cost(meta.vlen));
      crc_span.finish();
      const BytesView value{raw->data() + kv::ObjectLayout::kHeaderSize +
                                klen_hint_,
                            vlen_hint_};
      if (kv::object_crc(key_hash, meta.klen, meta.vlen, value) ==
          meta.crc) {
        co_return Bytes(value.begin(), value.end());
      }
    }
    co_return Status{StatusCode::kCorrupt, "both versions incomplete"};
  }

 private:
  ErdaStore& store_;
  rpc::Connection conn_;
};

}  // namespace

std::unique_ptr<KvClient> ErdaStore::make_client(ClientOptions options) {
  return std::make_unique<ErdaClient>(*this, options);
}

// =================================================================== Forca

ForcaStore::ForcaStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config, kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets) {}

sim::Task<void> ForcaStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kGetLoc) {
    co_await handle_get_loc(std::move(req));
    co_return;
  }
  EFAC_CHECK_MSG(req.opcode == kAlloc, "Forca: unexpected opcode");
  const AllocRequest alloc = AllocRequest::decode(req.args);
  const std::uint64_t key_hash = kv::hash_key(alloc.key);
  std::size_t probes = 0;
  AllocResponse resp;
  const Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
  // Forca's extra object-metadata indirection taxes every request.
  SimDuration cost = probes * config_.cpu.hash_probe_ns +
                     config_.cpu.metadata_indirection_ns;
  if (!slot) {
    resp.status = slot.status().code();
  } else {
    kv::HashDir::Entry entry = dir_.read(*slot);
    const Expected<MemOffset> off = pool_a().allocate(
        kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
    if (!off) {
      resp.status = StatusCode::kOutOfSpace;
    } else {
      cost += place_object_metadata(*off, alloc, entry.current(),
                                    /*persist=*/false);
      entry.key_hash = key_hash;
      entry.off_old = *off;
      entry.mark = false;
      dir_.write(*slot, entry);  // exposed immediately, not persisted
      resp.object_off = *off;
    }
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
}

sim::Task<void> ForcaStore::handle_get_loc(rpc::ParsedRequest req) {
  const GetLocRequest get = GetLocRequest::decode(req.args);
  const std::uint64_t key_hash = kv::hash_key(get.key);
  std::size_t probes = 0;
  co_await charge(config_.cpu.metadata_indirection_ns);
  const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
  co_await charge(probes * config_.cpu.hash_probe_ns);

  LocResponse resp;
  // The default (miss / exhausted-chain) reply claims nothing; only the
  // `intact` branch below upgrades it to a durability-claiming kOk.
  EFAC_NO_CLAIM("forca.get_loc.miss_default");
  resp.status = StatusCode::kNotFound;
  if (slot) {
    const kv::HashDir::Entry entry = dir_.read(*slot);
    int depth = 0;
    MemOffset off = entry.current();
    while (off != 0 && depth++ < kMaxChain) {
      if (!header_readable(off)) break;
      kv::ObjectRef obj{*arena_, off};
      const kv::ObjectMeta meta = obj.read_header();
      if (!object_span_ok(off, meta) || !meta.valid ||
          meta.key_hash != key_hash) {
        break;
      }
      // Forca has no durability flag: it must CRC-verify on EVERY read,
      // then persist, before returning the offset.
      ++stats_.crc_checks;
      tracer_.record("server.get_crc", config_.crc.cost(meta.vlen));
      co_await charge(config_.crc.cost(meta.vlen));
      // The CRC pass reads bytes a client DMA may still be landing into;
      // a torn version fails the check and falls back, which is the guard.
      bool intact = false;
      {
        analysis::AccessGuard crc_guard(checker_.get(),
                                        analysis::Guard::kCrcVerify,
                                        "forca.get_loc.verify");
        intact = obj.verify_crc();
      }
      if (intact) {
        const std::size_t total =
            kv::ObjectLayout::total_size(meta.klen, meta.vlen);
        // Persist only if a previous read has not already done so (the
        // object is clean after the first read-path flush).
        if (arena_->is_dirty(off, total)) {
          arena_->flush(off, total);
          dir_.persist(*slot);
          ++stats_.persists;
          co_await charge(arena_->cost().flush_cost(total) +
                          arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
                          arena_->cost().fence_ns);
          EFAC_PERSISTS("forca.get_loc.read_flush");
        } else {
          // Clean means an earlier read-path flush already persisted this
          // exact span — evidence carries over.
          EFAC_PERSISTS("forca.get_loc.already_clean");
        }
        // Returning the location is Forca's durability promise: the
        // object was verified intact and persisted before the reply.
        assert_object_durable(checker_.get(), off, total,
                              "forca.get_loc.reply");
        resp.status = StatusCode::kOk;
        resp.object_off = off;
        resp.klen = meta.klen;
        resp.vlen = meta.vlen;
        break;
      }
      resp.status = StatusCode::kCorrupt;
      off = meta.pre_ptr;  // torn: fall back to the previous version
    }
  }
  co_await charge(config_.cpu.send_post_ns);
  EFAC_ACK_SITE("forca.locate_ack");
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
}

Expected<Bytes> ForcaStore::recover_get(BytesView key) {
  return recover_via_dir(*arena_, dir_, *this, key);
}

namespace {

class ForcaClient final : public KvClient {
 public:
  ForcaClient(ForcaStore& store, const ClientOptions& options)
      : KvClient(store.simulator(), options),
        store_(store),
        conn_(store.simulator(), store.fabric(), store.node(),
              store.directory(), store.next_qp_id(), &metrics_,
              &recorder_) {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    metrics::Span crc_span{tracer_, "put.crc"};
    co_await sim::delay(store_.simulator(),
                        store_.config().crc.cost(value.size()));
    crc_span.finish();
    AllocRequest req;
    req.klen = static_cast<std::uint32_t>(key.size());
    req.vlen = static_cast<std::uint32_t>(value.size());
    req.crc = kv::object_crc(kv::hash_key(key), req.klen, req.vlen, value);
    req.key = key;
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return raw.status();
    const AllocResponse resp = AllocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
    const MemOffset value_off = resp.object_off +
                                kv::ObjectLayout::kHeaderSize + key.size() -
                                store_.pool_a().base();
    metrics::Span write_span{tracer_, "put.data_write"};
    const Expected<Unit> wr =
        co_await conn_.qp().write(store_.pool_rkey(), value_off, value);
    write_span.finish();
    co_return wr.status();
  }

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    ++stats_.gets_rpc_path;  // Forca reads always involve the server
    recorder_.emit(trace::EventType::kGetPath,
                   static_cast<std::uint8_t>(trace::GetPath::kRpcOnlyMode));
    TRACE_SPAN(tracer_, "get.total");
    const std::uint64_t key_hash = kv::hash_key(key);
    GetLocRequest req;
    req.key = key;
    metrics::Span rpc_span{tracer_, "get.loc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kGetLoc, req.encode(), options_.retry.rpc_timeout_ns);
    rpc_span.finish();
    if (!raw) co_return raw.status();
    const LocResponse resp = LocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    const std::size_t total =
        kv::ObjectLayout::total_size(resp.klen, resp.vlen);
    metrics::Span read_span{tracer_, "get.object_read"};
    // The server CRC-verified and persisted this object before handing
    // out its location; the raw read still re-validates the header.
    analysis::AccessGuard read_guard(
        checker_, analysis::Guard::kMetaRevalidate, "forca.get.object_read");
    const Expected<Bytes> raw_obj = co_await conn_.qp().read(
        store_.pool_rkey(), resp.object_off - store_.pool_a().base(), total);
    read_span.finish();
    if (!raw_obj) co_return raw_obj.status();
    co_return value_from_raw(*raw_obj, resp.klen, resp.vlen, key_hash);
  }

 private:
  ForcaStore& store_;
  rpc::Connection conn_;
};

}  // namespace

std::unique_ptr<KvClient> ForcaStore::make_client(ClientOptions options) {
  return std::make_unique<ForcaClient>(*this, options);
}

// ===================================================================== RPC

RpcStore::RpcStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config, kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets) {}

sim::Task<void> RpcStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  if (req.opcode == kPutInline) {
    const PutInlineRequest put = PutInlineRequest::decode(req.args);
    const std::uint64_t key_hash = kv::hash_key(put.key);
    std::size_t probes = 0;
    StatusCode status = StatusCode::kOk;
    const Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
    SimDuration cost =
        probes * config_.cpu.hash_probe_ns + config_.cpu.rpc_inline_extra_ns;
    if (!slot) {
      EFAC_NO_CLAIM("rpc.put.bucket_full");
      status = slot.status().code();
    } else {
      kv::HashDir::Entry entry = dir_.read(*slot);
      const std::size_t total =
          kv::ObjectLayout::total_size(put.key.size(), put.value.size());
      const Expected<MemOffset> off = pool_a().allocate(total);
      if (!off) {
        EFAC_NO_CLAIM("rpc.put.out_of_space");
        status = StatusCode::kOutOfSpace;
      } else {
        AllocRequest alloc;
        alloc.klen = static_cast<std::uint32_t>(put.key.size());
        alloc.vlen = static_cast<std::uint32_t>(put.value.size());
        alloc.crc = kv::object_crc(key_hash,
                                   static_cast<std::uint32_t>(put.key.size()),
                                   static_cast<std::uint32_t>(put.value.size()),
                                   put.value);  // kept for recovery checks
        alloc.key = put.key;
        cost += place_object_metadata(*off, alloc, entry.current(),
                                      /*persist=*/false);
        // The server copies the payload from network buffers into NVM and
        // persists everything before replying — the classic RPC path.
        arena_->store(
            *off + kv::ObjectLayout::kHeaderSize + put.key.size(), put.value);
        arena_->flush(*off, total);
        // Flush issued; fence cost charged with `cost` before the reply.
        EFAC_PERSISTS("rpc.put.flush_fence");
        ++stats_.persists;
        entry.key_hash = key_hash;
        entry.off_old = *off;
        entry.mark = false;
        dir_.write(*slot, entry);
        dir_.persist(*slot);
        cost += config_.cpu.memcpy_cost(put.value.size()) +
                arena_->cost().store_cost(put.value.size()) +
                arena_->cost().flush_cost(total) +
                arena_->cost().flush_cost(kv::HashDir::kEntrySize) +
                arena_->cost().fence_ns;
        // The OK reply promises the whole object persisted server-side.
        assert_object_durable(checker_.get(), *off, total, "rpc.put_ack");
      }
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    EFAC_ACK_SITE("rpc.put_ack");
    rpc::Replier{directory_, req.src_qp, req.call_id}.reply(
        encode_status(status));
  } else if (req.opcode == kGetInline) {
    const GetLocRequest get = GetLocRequest::decode(req.args);
    const std::uint64_t key_hash = kv::hash_key(get.key);
    std::size_t probes = 0;
    ValueResponse resp;
    resp.status = StatusCode::kNotFound;
    const Expected<std::size_t> slot = dir_.find(key_hash, &probes);
    SimDuration cost = probes * config_.cpu.hash_probe_ns;
    if (slot) {
      const kv::HashDir::Entry entry = dir_.read(*slot);
      if (entry.current() != 0) {
        kv::ObjectRef obj{*arena_, entry.current()};
        const kv::ObjectMeta meta = obj.read_header();
        if (object_span_ok(entry.current(), meta) && meta.valid &&
            meta.key_hash == key_hash) {
          resp.status = StatusCode::kOk;
          resp.value = obj.read_value(meta.klen, meta.vlen);
          cost += arena_->cost().load_cost(meta.vlen) +
                  config_.cpu.memcpy_cost(meta.vlen);
        }
      }
    }
    co_await charge(cost + config_.cpu.send_post_ns);
    rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
  } else {
    EFAC_UNREACHABLE("RPC store: unexpected opcode");
  }
}

Expected<Bytes> RpcStore::recover_get(BytesView key) {
  return recover_via_dir(*arena_, dir_, *this, key);
}

namespace {

class RpcStoreClient final : public KvClient {
 public:
  RpcStoreClient(RpcStore& store, const ClientOptions& options)
      : KvClient(store.simulator(), options),
        store_(store),
        conn_(store.simulator(), store.fabric(), store.node(),
              store.directory(), store.next_qp_id(), &metrics_,
              &recorder_) {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    PutInlineRequest req;
    req.key = std::move(key);
    req.value = std::move(value);
    metrics::Span rpc_span{tracer_, "put.rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kPutInline, req.encode(), options_.retry.rpc_timeout_ns);
    rpc_span.finish();
    if (!raw) co_return raw.status();
    co_return Status{decode_status(*raw)};
  }

  sim::Task<Expected<Bytes>> get_attempt(Bytes key) override {
    ++stats_.gets;
    ++stats_.gets_rpc_path;
    recorder_.emit(trace::EventType::kGetPath,
                   static_cast<std::uint8_t>(trace::GetPath::kRpcOnlyMode));
    TRACE_SPAN(tracer_, "get.total");
    GetLocRequest req;
    req.key = std::move(key);
    metrics::Span rpc_span{tracer_, "get.rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kGetInline, req.encode(), options_.retry.rpc_timeout_ns);
    rpc_span.finish();
    if (!raw) co_return raw.status();
    ValueResponse resp = ValueResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    co_return std::move(resp.value);
  }

 private:
  RpcStore& store_;
  rpc::Connection conn_;
};

}  // namespace

std::unique_ptr<KvClient> RpcStore::make_client(ClientOptions options) {
  return std::make_unique<RpcStoreClient>(*this, options);
}

// ================================================================= InPlace

InPlaceStore::InPlaceStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config, kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets) {}

sim::Task<void> InPlaceStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  EFAC_CHECK_MSG(req.opcode == kAlloc, "InPlace: unexpected opcode");
  const AllocRequest alloc = AllocRequest::decode(req.args);
  const std::uint64_t key_hash = kv::hash_key(alloc.key);
  std::size_t probes = 0;
  AllocResponse resp;
  const Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
  SimDuration cost = probes * config_.cpu.hash_probe_ns;
  if (!slot) {
    resp.status = slot.status().code();
  } else {
    kv::HashDir::Entry entry = dir_.read(*slot);
    const MemOffset existing = entry.current();
    bool reuse = false;
    if (existing != 0) {
      const kv::ObjectMeta meta =
          kv::ObjectRef{*arena_, existing}.read_header();
      reuse = meta.klen == alloc.klen && meta.vlen == alloc.vlen;
    }
    if (reuse) {
      // In-place overwrite: hand back the SAME region. Refresh the
      // header's CRC/timestamp (unflushed, like everything else here).
      kv::ObjectRef obj{*arena_, existing};
      kv::ObjectMeta meta = obj.read_header();
      meta.crc = alloc.crc;
      meta.write_time = sim_.now();
      obj.write_header(meta);
      cost += arena_->cost().store_cost(kv::ObjectLayout::kHeaderSize);
      resp.object_off = existing;
    } else {
      const Expected<MemOffset> off = pool_a().allocate(
          kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
      if (!off) {
        resp.status = StatusCode::kOutOfSpace;
      } else {
        cost += place_object_metadata(*off, alloc, /*pre_ptr=*/0,
                                      /*persist=*/false);
        entry.key_hash = key_hash;
        entry.off_old = *off;
        entry.mark = false;
        dir_.write(*slot, entry);
        resp.object_off = *off;
      }
    }
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
}

Expected<Bytes> InPlaceStore::recover_get(BytesView key) {
  // No version list to walk: the single slot either verifies or is junk.
  return recover_via_dir(*arena_, dir_, *this, key);
}

namespace {

class InPlaceClient final : public TwoReadClient {
 public:
  InPlaceClient(InPlaceStore& store, const ClientOptions& options)
      : TwoReadClient(store, store.dir(), options,
                      analysis::Guard::kDeclaredRacy, "inplace.get.entry_read",
                      "inplace.get.object_read") {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    AllocRequest req;
    req.klen = static_cast<std::uint32_t>(key.size());
    req.vlen = static_cast<std::uint32_t>(value.size());
    req.crc = kv::object_crc(kv::hash_key(key), req.klen, req.vlen,
                             value);  // recovery bookkeeping only
    req.key = key;
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return raw.status();
    const AllocResponse resp = AllocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
    // The overwrite lands on the LIVE bytes: a crash mid-flight tears the
    // only copy of this value, and concurrent writers of the same key
    // race by construction — the failure mode this system exists to show.
    const MemOffset value_off = resp.object_off +
                                kv::ObjectLayout::kHeaderSize + key.size() -
                                store_.pool_a().base();
    metrics::Span write_span{tracer_, "put.data_write"};
    analysis::AccessGuard write_guard(
        checker_, analysis::Guard::kDeclaredRacy, "inplace.put.overwrite");
    const Expected<Unit> wr =
        co_await conn_.qp().write(store_.pool_rkey(), value_off, value);
    write_span.finish();
    co_return wr.status();
  }
};

}  // namespace

std::unique_ptr<KvClient> InPlaceStore::make_client(ClientOptions options) {
  return std::make_unique<InPlaceClient>(*this, options);
}

// ====================================================================== CA

CaStore::CaStore(sim::Simulator& sim, StoreConfig config)
    : StoreBase(sim, config, kv::HashDir::bytes_required(config.hash_buckets)),
      dir_(*arena_, 0, config_.hash_buckets) {}

sim::Task<void> CaStore::handle(rdma::InboundMessage msg) {
  co_await charge(config_.recv_cost());
  rpc::ParsedRequest req = rpc::parse_request(msg);
  EFAC_CHECK_MSG(req.opcode == kAlloc, "CA: unexpected opcode");
  const AllocRequest alloc = AllocRequest::decode(req.args);
  const std::uint64_t key_hash = kv::hash_key(alloc.key);
  std::size_t probes = 0;
  AllocResponse resp;
  const Expected<std::size_t> slot = dir_.find_or_claim(key_hash, &probes);
  SimDuration cost = probes * config_.cpu.hash_probe_ns;
  if (!slot) {
    resp.status = slot.status().code();
  } else {
    kv::HashDir::Entry entry = dir_.read(*slot);
    const Expected<MemOffset> off = pool_a().allocate(
        kv::ObjectLayout::total_size(alloc.klen, alloc.vlen));
    if (!off) {
      resp.status = StatusCode::kOutOfSpace;
    } else {
      // No persistence, no ordering: metadata exposed before data lands.
      cost += place_object_metadata(*off, alloc, entry.current(),
                                    /*persist=*/false);
      entry.key_hash = key_hash;
      entry.off_old = *off;
      entry.mark = false;
      dir_.write(*slot, entry);
      resp.object_off = *off;
    }
  }
  co_await charge(cost + config_.cpu.send_post_ns);
  rpc::Replier{directory_, req.src_qp, req.call_id}.reply(resp.encode());
}

Expected<Bytes> CaStore::recover_get(BytesView key) {
  // CA gives no guarantee; this is best-effort inspection for the tests
  // that demonstrate the inconsistency the paper motivates with.
  return recover_via_dir(*arena_, dir_, *this, key);
}

namespace {

class CaClient final : public TwoReadClient {
 public:
  CaClient(CaStore& store, const ClientOptions& options)
      : TwoReadClient(store, store.dir(), options,
                      analysis::Guard::kDeclaredRacy, "ca.get.entry_read",
                      "ca.get.object_read") {}

  sim::Task<Status> put_attempt(Bytes key, Bytes value) override {
    ++stats_.puts;
    TRACE_SPAN(tracer_, "put.total");
    AllocRequest req;
    req.klen = static_cast<std::uint32_t>(key.size());
    req.vlen = static_cast<std::uint32_t>(value.size());
    req.crc = kv::object_crc(kv::hash_key(key), req.klen, req.vlen,
                             value);  // bookkeeping only
    req.key = key;
    metrics::Span alloc_span{tracer_, "put.alloc_rpc"};
    const Expected<Bytes> raw = co_await conn_.call_timeout(
        kAlloc, req.encode(), options_.retry.rpc_timeout_ns);
    alloc_span.finish();
    if (!raw) co_return raw.status();
    const AllocResponse resp = AllocResponse::decode(*raw);
    if (resp.status != StatusCode::kOk) co_return Status{resp.status};
    recorder_.emit(trace::EventType::kObjBind, 0, resp.object_off);
    const MemOffset value_off = resp.object_off +
                                kv::ObjectLayout::kHeaderSize + key.size() -
                                store_.pool_a().base();
    metrics::Span write_span{tracer_, "put.data_write"};
    const Expected<Unit> wr =
        co_await conn_.qp().write(store_.pool_rkey(), value_off, value);
    write_span.finish();
    co_return wr.status();
  }
};

}  // namespace

std::unique_ptr<KvClient> CaStore::make_client(ClientOptions options) {
  return std::make_unique<CaClient>(*this, options);
}

}  // namespace efac::stores
