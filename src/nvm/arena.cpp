#include "nvm/arena.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "analysis/checker.hpp"
#include "common/assert.hpp"

namespace efac::nvm {

SimDuration CostModel::flush_cost(std::size_t bytes) const noexcept {
  if (bytes == 0) return 0;
  return flush_base_ns + static_cast<SimDuration>(std::llround(
                             flush_byte_ns * static_cast<double>(bytes)));
}

SimDuration CostModel::store_cost(std::size_t bytes) const noexcept {
  return static_cast<SimDuration>(
      std::llround(store_byte_ns * static_cast<double>(bytes)));
}

SimDuration CostModel::load_cost(std::size_t bytes) const noexcept {
  return static_cast<SimDuration>(
      std::llround(load_byte_ns * static_cast<double>(bytes)));
}

Arena::Arena(sim::Simulator& sim, std::size_t size, CostModel cost,
             std::uint64_t seed, metrics::MetricsRegistry* registry)
    : sim_(sim),
      cost_(cost),
      current_(size, 0),
      persisted_(size, 0),
      dirty_lines_((size + kLine - 1) / kLine, false),
      rng_(seed),
      owned_metrics_(registry == nullptr
                         ? std::make_unique<metrics::MetricsRegistry>()
                         : nullptr),
      metrics_(registry == nullptr ? *owned_metrics_ : *registry),
      stats_(metrics_) {
  EFAC_CHECK_MSG(size > 0 && size % kLine == 0,
                 "arena size must be a positive multiple of " << kLine);
}

void Arena::check_range(MemOffset off, std::size_t len) const {
  EFAC_CHECK_MSG(off <= current_.size() && len <= current_.size() - off,
                 "arena access out of range: off=" << off << " len=" << len
                                                   << " size="
                                                   << current_.size());
}

void Arena::mark_dirty(MemOffset off, std::size_t len) {
  if (len == 0) return;
  const std::size_t first = off / kLine;
  const std::size_t last = (off + len - 1) / kLine;
  for (std::size_t line = first; line <= last; ++line) {
    dirty_lines_[line] = true;
  }
}

void Arena::store(MemOffset off, BytesView data) {
  check_range(off, data.size());
  if (data.empty()) return;
  resolve_dma(sim_.now());
  std::memcpy(current_.data() + off, data.data(), data.size());
  mark_dirty(off, data.size());
  ++stats_.cpu_stores;
  stats_.cpu_store_bytes += data.size();
  if (checker_ != nullptr) checker_->on_cpu_write(off, data.size());
}

void Arena::store_u64(MemOffset off, std::uint64_t value) {
  EFAC_CHECK_MSG(off % kAtomicUnit == 0, "store_u64 requires 8-byte alignment");
  std::uint8_t raw[kAtomicUnit];
  store_u64_le(raw, value);
  store(off, BytesView{raw, kAtomicUnit});
}

void Arena::load(MemOffset off, MutableBytesView out) {
  check_range(off, out.size());
  if (out.empty()) return;
  resolve_dma(sim_.now());
  std::memcpy(out.data(), current_.data() + off, out.size());
  ++stats_.cpu_loads;
  stats_.cpu_load_bytes += out.size();
  if (checker_ != nullptr) checker_->on_read(off, out.size());
}

Bytes Arena::load(MemOffset off, std::size_t len) {
  Bytes out(len);
  load(off, MutableBytesView{out});
  return out;
}

std::uint64_t Arena::load_u64(MemOffset off) {
  EFAC_CHECK_MSG(off % kAtomicUnit == 0, "load_u64 requires 8-byte alignment");
  std::uint8_t raw[kAtomicUnit];
  load(off, MutableBytesView{raw, kAtomicUnit});
  return load_u64_le(raw);
}

void Arena::flush(MemOffset off, std::size_t len) {
  if (len == 0) return;
  if (injector_ != nullptr && injector_->enabled()) {
    if (injector_->fire(fault::Site::kPersistDrop)) return;
    if (injector_->fire(fault::Site::kPersistDelay)) {
      // The CLWB is deferred: the caller believes the data is durable, but
      // the lines reach the media only delay_ns later — a crash in between
      // loses them (unless naturally evicted).
      const SimDuration d =
          injector_->spec(fault::Site::kPersistDelay).delay_ns;
      sim_.call_after(d, [this, off, len] { flush_now(off, len); });
      return;
    }
  }
  flush_now(off, len);
}

void Arena::flush_now(MemOffset off, std::size_t len) {
  check_range(off, len);
  resolve_dma(sim_.now());
  const std::size_t first = off / kLine;
  const std::size_t last = (off + len - 1) / kLine;
  for (std::size_t line = first; line <= last; ++line) {
    // Flush at line granularity, as CLWB does: neighbours sharing the line
    // persist too.
    std::memcpy(persisted_.data() + line * kLine, current_.data() + line * kLine,
                kLine);
    dirty_lines_[line] = false;
    ++stats_.flushed_lines;
  }
  ++stats_.flushes;
  if (checker_ != nullptr) {
    // The checker sees the line-expanded range: neighbours sharing a
    // flushed line really did persist.
    checker_->on_flush(first * kLine, (last - first + 1) * kLine);
  }
}

bool Arena::is_dirty(MemOffset off, std::size_t len) {
  if (len == 0) return false;
  check_range(off, len);
  resolve_dma(sim_.now());
  const std::size_t first = off / kLine;
  const std::size_t last = (off + len - 1) / kLine;
  for (std::size_t line = first; line <= last; ++line) {
    if (dirty_lines_[line]) return true;
  }
  return false;
}

std::size_t Arena::chunk_count(const Placement& p) noexcept {
  return (p.data.size() + kLine - 1) / kLine;
}

void Arena::apply_chunk(Placement& p, std::size_t chunk_index) {
  const std::size_t begin = chunk_index * kLine;
  const std::size_t len = std::min(kLine, p.data.size() - begin);
  std::memcpy(current_.data() + p.off + begin, p.data.data() + begin, len);
  mark_dirty(p.off + begin, len);
}

void Arena::dma_write(MemOffset off, BytesView data, SimTime start,
                      SimTime end, PlacementOrder order) {
  check_range(off, data.size());
  EFAC_CHECK_MSG(start <= end, "DMA interval inverted");
  if (data.empty()) return;
  ++stats_.dma_writes;
  stats_.dma_bytes += data.size();
  if (checker_ != nullptr) {
    checker_->on_dma_write(off, data.size(), start, end);
  }
  pending_.push_back(Placement{off, Bytes(data.begin(), data.end()), start,
                               end, order, rng_(), 0});
  resolve_dma(sim_.now());
}

namespace {

/// Arrival instant of chunk `i` (by placement order) of `n` chunks spread
/// over [start, end]: the last chunk lands exactly at `end`.
SimTime chunk_arrival(SimTime start, SimTime end, std::size_t i,
                      std::size_t n) {
  if (n <= 1) return end;
  const double frac = static_cast<double>(i + 1) / static_cast<double>(n);
  return start + static_cast<SimTime>(
                     std::llround(frac * static_cast<double>(end - start)));
}

/// Deterministic permutation of [0, n) from a seed (Fisher–Yates).
std::vector<std::size_t> shuffled_indices(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  efac::Rng rng{seed};
  for (std::size_t i = n; i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.next_below(i)]);
  }
  return idx;
}

}  // namespace

void Arena::resolve_dma(SimTime now) {
  if (pending_.empty()) return;
  auto it = pending_.begin();
  while (it != pending_.end()) {
    Placement& p = *it;
    const std::size_t n = chunk_count(p);
    if (now >= p.end) {
      // Fully arrived: apply every remaining chunk.
      if (p.order == PlacementOrder::kSequential) {
        for (std::size_t i = p.applied_chunks; i < n; ++i) apply_chunk(p, i);
      } else {
        const auto idx = shuffled_indices(n, p.shuffle_seed);
        for (std::size_t i = p.applied_chunks; i < n; ++i) {
          apply_chunk(p, idx[i]);
        }
      }
      it = pending_.erase(it);
      continue;
    }
    // Partially arrived: apply chunks whose arrival instant has passed.
    // Arrival is non-decreasing in the chunk index and the clock never
    // runs backwards, so the chunks already applied need no re-check.
    std::size_t arrived = p.applied_chunks;
    while (arrived < n && chunk_arrival(p.start, p.end, arrived, n) <= now) {
      ++arrived;
    }
    if (arrived > p.applied_chunks) {
      if (p.order == PlacementOrder::kSequential) {
        for (std::size_t i = p.applied_chunks; i < arrived; ++i) {
          apply_chunk(p, i);
        }
      } else {
        const auto idx = shuffled_indices(n, p.shuffle_seed);
        for (std::size_t i = p.applied_chunks; i < arrived; ++i) {
          apply_chunk(p, idx[i]);
        }
      }
      p.applied_chunks = arrived;
    }
    ++it;
  }
}

void Arena::crash(const CrashPolicy& policy) {
  // 1. In-flight DMA: chunks that arrived by now are in `current_` (and
  //    dirty); the rest are lost with the NIC/PCIe buffers.
  resolve_dma(sim_.now());
  pending_.clear();

  // 2. Dirty lines: each 8-byte word independently either was evicted to
  //    the media before the crash (survives) or is lost.
  for (std::size_t line = 0; line < dirty_lines_.size(); ++line) {
    if (!dirty_lines_[line]) continue;
    const std::size_t base = line * kLine;
    for (std::size_t w = 0; w < kLine; w += kAtomicUnit) {
      if (rng_.next_bool(policy.eviction_probability)) {
        std::memcpy(persisted_.data() + base + w, current_.data() + base + w,
                    kAtomicUnit);
      }
    }
    dirty_lines_[line] = false;
  }

  // 3. The post-crash contents are exactly the persisted image.
  current_ = persisted_;
  ++stats_.crashes;
  if (checker_ != nullptr) checker_->on_crash();
}

void Arena::forget_shadow(MemOffset off, std::size_t len) noexcept {
  if (checker_ != nullptr) checker_->forget_region(off, len);
}

Bytes Arena::persisted_bytes(MemOffset off, std::size_t len) const {
  EFAC_CHECK_MSG(off <= persisted_.size() && len <= persisted_.size() - off,
                 "persisted_bytes out of range");
  return Bytes(persisted_.begin() + static_cast<std::ptrdiff_t>(off),
               persisted_.begin() + static_cast<std::ptrdiff_t>(off + len));
}

}  // namespace efac::nvm
