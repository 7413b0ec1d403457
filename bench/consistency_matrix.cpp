// Consistency matrix: not a paper figure, but a quantification of the
// paper's consistency TABLE-of-claims (§1, §7.2) across every system.
//
// For each system, run R independent crash trials: hammer a small key set
// with versioned writes, power-fail at a trial-specific instant with 50 %
// natural eviction, then recover every key and classify it:
//
//   intact   recovered bytes equal some fully-written value
//   lost     no version recovered (includes blends the identity-seeded
//            CRC correctly rejected — "neither old nor new" shows up here)
//   torn     recovered bytes match NO written value; must be 0.0 for every
//            system: recovery never exposes unverified bytes
//
// Also reports acked-write survival: durable-at-ack systems (SAW, IMM,
// RPC, Rcommit) must be 100 %; eFactory lands just below — its PUT ack
// deliberately precedes durability (asynchronous durability), and its
// guarantee is monotonic reads, not durable-at-ack.
#include "bench_common.hpp"

#include <map>

#include "stores/efactory.hpp"
#include "stores/world.hpp"

namespace efac::bench {
namespace {

using stores::SystemKind;

constexpr int kTrials = 12;
constexpr int kKeys = 8;
constexpr std::size_t kVlen = 1024;

Bytes tagged_value(int key, int version) {
  Bytes v(kVlen);
  std::uint64_t state = mix64(static_cast<std::uint64_t>(key) * 48271 +
                              static_cast<std::uint64_t>(version));
  for (std::size_t i = 0; i < kVlen; ++i) {
    if (i % 8 == 0) state = mix64(state + i);
    v[i] = static_cast<std::uint8_t>(state >> ((i % 8) * 8));
  }
  v[0] = static_cast<std::uint8_t>(key);
  v[1] = static_cast<std::uint8_t>(version);
  return v;
}

struct MatrixRow {
  int intact = 0;
  int lost = 0;
  int torn = 0;
  int acked = 0;
  int acked_survived = 0;
};

MatrixRow run_trials(SystemKind kind) {
  MatrixRow row;
  for (int trial = 0; trial < kTrials; ++trial) {
    stores::StoreConfig config;
    config.pool_bytes = 4 * sizeconst::kMiB;
    config.hash_buckets = 1u << 12;
    config.seed = 0xC0 + static_cast<std::uint64_t>(trial);
    config.crash_policy.eviction_probability = 0.5;
    stores::World world{kind, config};
    world.start();
    stores::ClientOptions hinted;
    hinted.size_hint = {32, kVlen};
    stores::KvClient& client = world.make_client(hinted);
    workload::Workload wl{workload::WorkloadConfig{
        .key_count = kKeys, .key_len = 32, .value_len = kVlen}};

    std::map<int, int> acked;
    world.sim.spawn([](stores::KvClient& c, workload::Workload& w,
                       std::map<int, int>* out) -> sim::Task<void> {
      for (int v = 1; v < 40; ++v) {
        for (int k = 0; k < kKeys; ++k) {
          const Status s = co_await c.put(w.key_at(k), tagged_value(k, v));
          if (s.is_ok()) (*out)[k] = v;
        }
      }
    }(client, wl, &acked));
    world.sim.run_until(20'000 + static_cast<SimTime>(trial) * 43'331);
    world.store().crash();

    for (int k = 0; k < kKeys; ++k) {
      const Expected<Bytes> got = world.store().recover_get(wl.key_at(k));
      if (!got.has_value()) {
        ++row.lost;
      } else if (got->size() != kVlen) {
        ++row.torn;  // recovered bytes of the wrong length: torn header
      } else if (
                 *got == tagged_value((*got)[0], (*got)[1]) &&
                 (*got)[0] == k) {
        ++row.intact;
      } else {
        ++row.torn;
      }
      const auto it = acked.find(k);
      if (it != acked.end()) {
        ++row.acked;
        const bool right_size = got.has_value() && got->size() == kVlen;
        if (right_size && *got == tagged_value(k, it->second)) {
          ++row.acked_survived;
        } else if (right_size &&
                   *got == tagged_value((*got)[0], (*got)[1]) &&
                   (*got)[1] > it->second) {
          ++row.acked_survived;  // an even newer complete write survived
        }
      }
    }
    std::string prefix = "consistency/";
    prefix += stores::to_string(kind);
    prefix += "/";
    metrics_sink().merge_from(client.metrics(), prefix);
    metrics_sink().merge_from(world.store().metrics(), prefix);
  }
  return row;
}

void matrix(SystemKind kind) {
  const MatrixRow row = run_trials(kind);
  const int total = kTrials * kKeys;
  const std::string name{stores::to_string(kind)};
  const std::string table =
      "Consistency matrix — crash trials (12 crashes x 8 keys, "
      "50% eviction)";
  Summary::instance().add(table, name, "intact %",
                          100.0 * row.intact / total, 1);
  Summary::instance().add(table, name, "lost %", 100.0 * row.lost / total,
                          1);
  Summary::instance().add(table, name, "torn %", 100.0 * row.torn / total,
                          1);
  Summary::instance().add(
      table, name, "acked survived %",
      row.acked == 0 ? 0.0 : 100.0 * row.acked_survived / row.acked, 1);
}

void add_points(Points& points) {
  for (const SystemKind kind :
       {SystemKind::kEFactory, SystemKind::kSaw, SystemKind::kImm,
        SystemKind::kRpc, SystemKind::kErda, SystemKind::kForca,
        SystemKind::kCaNoPersist, SystemKind::kRcommit,
        SystemKind::kInPlace}) {
    std::string name = "consistency/";
    name += stores::to_string(kind);
    points.push_back({name, [kind] { matrix(kind); }});
  }
}

}  // namespace
}  // namespace efac::bench

int main(int argc, char** argv) {
  return efac::bench::bench_main(argc, argv, "consistency",
                                 efac::bench::add_points);
}
