#include "stores/store_base.hpp"

#include <algorithm>
#include <bit>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace efac::stores {

StoreBase::StoreBase(sim::Simulator& sim, StoreConfig config,
                     std::size_t hash_region_bytes)
    : sim_(sim), config_(config), fabric_(config.fabric, config.seed ^ 0xFAB) {
  const std::size_t line = sizeconst::kCacheLine;
  // Pool bases derive from these sizes; keep everything line-aligned.
  config_.pool_bytes = (config_.pool_bytes + line - 1) / line * line;
  const std::size_t hash_bytes =
      (hash_region_bytes + line - 1) / line * line;
  // StoreConfig::arena_bytes() promises to bound the real layout; keep the
  // two in sync (index_bytes() is the max over every system's index).
  EFAC_CHECK_MSG(hash_region_bytes <= config_.index_bytes(),
                 "index region exceeds StoreConfig::index_bytes(): "
                     << hash_region_bytes << " > " << config_.index_bytes());
  const std::size_t pools = config_.pool_bytes * (config_.second_pool ? 2 : 1);
  const std::size_t arena_size =
      (hash_bytes + pools + line - 1) / line * line;

  // The sanitizer attaches to the Simulator before the arena exists so
  // that every access the store ever makes is observed.
  if (config_.analysis.enabled) {
    checker_ = std::make_unique<analysis::Checker>(sim_, config_.analysis,
                                                   &metrics_);
  }

  // The flight recorder never schedules events or draws randomness, so
  // creating it cannot perturb the simulation schedule. Track order is
  // construction order (deterministic): server first, faults second,
  // system-specific actors and clients after.
  if (config_.trace.enabled) {
    trace_log_ = std::make_unique<trace::EventLog>(
        sim_, config_.trace.capacity, config_.trace.actor_prefix);
    server_rec_.attach(trace_log_.get(), "server");
    fault_rec_.attach(trace_log_.get(), "faults");
  }

  // The telemetry sampler registers a periodic simulator event only once
  // start() arms it; construction here just wires sources and (optionally)
  // a flight-recorder track for SLO violations. Disabled = null pointer,
  // exactly like the checker and the event log above.
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<metrics::TelemetrySampler>(
        sim_, metrics_, config_.telemetry);
    telemetry_->add_counter_source(this, "server.requests", stats_.requests);
    telemetry_->add_counter_source(this, "server.persists", stats_.persists);
    telemetry_->add_counter_source(this, "server.bg_verified",
                                   stats_.bg_verified);
    if (trace_log_ != nullptr) {
      telemetry_rec_.attach(trace_log_.get(), "telemetry");
      telemetry_->set_violation_hook(
          [this](const metrics::SloViolation& v, std::size_t rule_index) {
            telemetry_rec_.emit(trace::EventType::kSloViolation,
                                static_cast<std::uint8_t>(rule_index),
                                std::bit_cast<std::uint64_t>(v.value),
                                std::bit_cast<std::uint64_t>(v.threshold));
          });
    }
  }

  arena_ = std::make_unique<nvm::Arena>(sim_, arena_size, config_.nvm,
                                        config_.seed ^ 0xA7E4A, &metrics_);
  if (checker_ != nullptr) arena_->set_checker(checker_.get());
  node_ = std::make_unique<rdma::Node>(sim_, arena_.get());

  // Arm fault injection only when the plan asks for it: with an empty plan
  // the injector stays disabled and every hook reduces to one branch, so
  // seeded clean runs are bit-identical to a build without any plan.
  if (!config_.fault_plan.empty()) {
    injector_.configure(config_.fault_plan, metrics_);
    fabric_.set_injector(&injector_);
    arena_->set_injector(&injector_);
    injector_.set_recorder(&fault_rec_);
  }

  pool_a_ = std::make_unique<kv::DataPool>(*arena_, hash_bytes,
                                           config_.pool_bytes);
  if (config_.second_pool) {
    pool_b_ = std::make_unique<kv::DataPool>(
        *arena_, hash_bytes + config_.pool_bytes, config_.pool_bytes);
  }

  // Clients read the index one-sided; data pools are read+written
  // one-sided. One MR over the whole data region keeps rkeys stable across
  // log cleaning (the paper registers the new pool; a fresh MR per pool
  // would force re-exchanging keys with every client mid-run).
  index_rkey_ = node_->register_mr(0, hash_bytes, rdma::Access::kRead);
  pool_rkey_ = node_->register_mr(hash_bytes, pools, rdma::Access::kReadWrite);
}

void StoreBase::start() {
  // Spawn (and run until first suspension) under the server clock domain:
  // all server-side coroutines share one actor — the cooperative DES
  // scheduler is real synchronization between them.
  analysis::ActorScope scope(
      checker_.get(),
      checker_ != nullptr ? checker_->server_actor() : 0);
  for (std::size_t i = 0; i < config_.server_workers; ++i) {
    sim_.spawn([](StoreBase& self) -> sim::Task<void> {
      for (;;) {
        rdma::InboundMessage msg = co_await self.node_->recv_queue().pop();
        ++self.stats_.requests;
        // One central RPC-delivery event for every system: peek the
        // request preamble (opcode u16, call id u64) the way
        // rpc::parse_request will. IMM notifications carry no preamble.
        if (self.server_rec_.enabled() && !msg.has_imm &&
            msg.payload.size() >= 10) {
          ByteReader peek{msg.payload};
          const std::uint16_t opcode = peek.get_u16();
          const std::uint64_t call_id = peek.get_u64();
          self.server_rec_.emit(trace::EventType::kRpcDeliver,
                                static_cast<std::uint8_t>(opcode), call_id,
                                msg.src_qp);
        }
        co_await self.handle(std::move(msg));
      }
    }(*this));
  }
  start_extras();
  if (telemetry_ != nullptr) telemetry_->start();
}

void StoreBase::crash() {
  arena_->crash(config_.crash_policy);
  crashed_ = true;
}

SimDuration StoreBase::place_object_metadata(MemOffset off,
                                             const AllocRequest& req,
                                             MemOffset pre_ptr,
                                             bool persist) {
  kv::ObjectMeta meta;
  meta.crc = req.crc;
  meta.klen = req.klen;
  meta.vlen = req.vlen;
  meta.valid = true;
  meta.pre_ptr = pre_ptr;
  meta.write_time = sim_.now();
  meta.key_hash = kv::hash_key(req.key);

  kv::ObjectRef obj{*arena_, off};
  obj.write_header(meta);
  obj.write_key(req.key);
  // Pools are recycled by log cleaning without zeroing: reset the flag
  // word explicitly so a stale 1 can never fake durability.
  obj.set_durable(req.klen, req.vlen, false);
  // Link the forward pointer of the previous version (advisory metadata
  // used by log cleaning; correctness never depends on it).
  if (pre_ptr != 0) {
    kv::ObjectRef{*arena_, pre_ptr}.set_next_ptr(off);
  }

  const std::size_t meta_bytes = kv::ObjectLayout::kHeaderSize + req.klen;
  SimDuration cost = config_.cpu.alloc_ns +
                     arena_->cost().store_cost(meta_bytes + 8);
  if (persist) {
    // One contiguous flush of header+key. The flag word (=0) stays
    // volatile: recovery never trusts flags — it re-verifies by CRC — so
    // losing the zero costs nothing, and skipping the extra flush keeps
    // the persist step off eFactory's critical-path budget. The fence is
    // the caller's: it orders this flush together with the hash-entry
    // flush under a single SFENCE.
    arena_->flush(off, meta_bytes);
    ++stats_.persists;
    cost += arena_->cost().flush_cost(meta_bytes);
  }
  ++stats_.allocs;
  return cost;
}

bool StoreBase::header_readable(MemOffset off) const {
  return off != 0 && off % 8 == 0 &&
         off + kv::ObjectLayout::kHeaderSize <= arena_->size();
}

std::vector<StoreBase::Version> StoreBase::versions_newest_first(
    MemOffset first_head, MemOffset second_head) const {
  std::vector<Version> out;
  out.reserve(2 * kMaxChain);
  auto walk = [&](MemOffset head) {
    int depth = 0;
    MemOffset off = head;
    while (off != 0 && depth++ < kMaxChain) {
      if (!header_readable(off)) break;  // garbage pointer: stop the walk
      if (std::any_of(out.begin(), out.end(),
                      [off](const Version& v) { return v.off == off; })) {
        break;
      }
      const kv::ObjectMeta meta = kv::ObjectRef{*arena_, off}.read_header();
      if (!object_span_ok(off, meta)) break;
      out.push_back(Version{off, meta.write_time});
      off = meta.pre_ptr;
    }
  };
  walk(first_head);
  walk(second_head);
  // Newest first: chains may interleave across pools during cleaning.
  // Insertion sort is stable, so same-instant versions (duplicate keys of one
  // batch, cleaning copies) keep walk order and the head one-sided reads
  // follow ranks first; each chain is already newest first and the list holds
  // at most 2 * kMaxChain entries, so it is cheap and needs no buffer.
  for (std::size_t i = 1; i < out.size(); ++i) {
    const Version v = out[i];
    std::size_t j = i;
    for (; j > 0 && out[j - 1].write_time < v.write_time; --j) {
      out[j] = out[j - 1];
    }
    out[j] = v;
  }
  return out;
}

bool StoreBase::object_span_ok(MemOffset off,
                               const kv::ObjectMeta& meta) const {
  if (off == 0 || off >= arena_->size()) return false;
  // Cap sizes at the pool capacity to reject torn headers quickly.
  if (meta.klen > 64 * sizeconst::kKiB) return false;
  if (meta.vlen > config_.pool_bytes) return false;
  const std::size_t total = kv::ObjectLayout::total_size(meta.klen, meta.vlen);
  return total <= arena_->size() - off;
}

}  // namespace efac::stores
