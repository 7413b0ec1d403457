#include "kv/hash_dir.hpp"

#include <array>
#include <bit>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace efac::kv {

HashDir::HashDir(nvm::Arena& arena, MemOffset base, std::size_t buckets)
    : arena_(&arena), base_(base), buckets_(buckets) {
  EFAC_CHECK_MSG(std::has_single_bit(buckets), "bucket count must be 2^k");
  EFAC_CHECK_MSG(base % 8 == 0, "hash base must be 8-aligned");
  EFAC_CHECK_MSG(base + bytes_required(buckets) <= arena.size(),
                 "hash table exceeds arena");
}

Expected<std::size_t> HashDir::find(std::uint64_t key_hash,
                                    std::size_t* probes_out) {
  EFAC_CHECK(key_hash != 0);
  std::size_t slot = ideal_slot(key_hash);
  for (std::size_t probe = 0; probe < buckets_; ++probe) {
    const std::uint64_t stored = arena_->load_u64(entry_offset(slot));
    if (probes_out != nullptr) *probes_out = probe + 1;
    if (stored == key_hash) return slot;
    if (stored == 0) return Status{StatusCode::kNotFound};
    slot = (slot + 1) & (buckets_ - 1);
  }
  return Status{StatusCode::kNotFound, "table scan exhausted"};
}

Expected<std::size_t> HashDir::find_or_claim(std::uint64_t key_hash,
                                             std::size_t* probes_out) {
  EFAC_CHECK(key_hash != 0);
  std::size_t slot = ideal_slot(key_hash);
  for (std::size_t probe = 0; probe < buckets_; ++probe) {
    const std::uint64_t stored = arena_->load_u64(entry_offset(slot));
    if (probes_out != nullptr) *probes_out = probe + 1;
    if (stored == key_hash) return slot;
    if (stored == 0) {
      arena_->store_u64(entry_offset(slot), key_hash);
      ++live_;
      return slot;
    }
    slot = (slot + 1) & (buckets_ - 1);
  }
  return Status{StatusCode::kOutOfSpace, "hash table full"};
}

HashDir::Entry HashDir::read(std::size_t slot) {
  EFAC_CHECK(slot < buckets_);
  std::array<std::uint8_t, kEntrySize> raw;
  arena_->load(entry_offset(slot), raw);
  return decode(raw);
}

void HashDir::write(std::size_t slot, const Entry& entry) {
  EFAC_CHECK(slot < buckets_);
  const MemOffset off = entry_offset(slot);
  // Four 8-byte atomic stores; a concurrent reader sees each field either
  // old or new, never torn.
  if (arena_->load_u64(off) == 0 && entry.key_hash != 0) ++live_;
  arena_->store_u64(off, entry.key_hash);
  arena_->store_u64(off + 8, entry.off_old);
  arena_->store_u64(off + 16, entry.off_new);
  arena_->store_u64(off + 24, entry.mark ? 1 : 0);
}

void HashDir::persist(std::size_t slot) {
  arena_->flush(entry_offset(slot), kEntrySize);
}

HashDir::Entry HashDir::decode(BytesView raw) {
  EFAC_CHECK(raw.size() >= kEntrySize);
  ByteReader r{raw};
  Entry e;
  e.key_hash = r.get_u64();
  e.off_old = r.get_u64();
  e.off_new = r.get_u64();
  e.mark = (r.get_u64() & 1) != 0;
  return e;
}

}  // namespace efac::kv
