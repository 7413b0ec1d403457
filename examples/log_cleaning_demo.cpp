// Log-cleaning demo: watch eFactory reclaim a nearly-full pool while
// clients keep reading and writing.
//
//   $ ./examples/log_cleaning_demo
//
// A deliberately small data pool forces cleaning rounds; the demo prints
// pool occupancy before/after each round and verifies every key is still
// readable with the right (latest) value throughout.
#include <cstdio>
#include <map>

#include "stores/efactory.hpp"
#include "stores/world.hpp"
#include "workload/ycsb.hpp"

using namespace efac;  // NOLINT: example brevity

namespace {

constexpr int kKeys = 64;
constexpr std::size_t kValueLen = 1024;

Bytes value_of(int key, int version) {
  Bytes v(kValueLen, static_cast<std::uint8_t>(key * 31 + version));
  v[0] = static_cast<std::uint8_t>(key);
  v[1] = static_cast<std::uint8_t>(version);
  return v;
}

}  // namespace

int main() {
  stores::StoreConfig config;
  // Small pool: ~170 objects fit, 64 keys live -> overwrites force rounds.
  config.pool_bytes = 192 * sizeconst::kKiB;
  config.hash_buckets = 1u << 10;
  stores::World world{stores::SystemKind::kEFactory, config};
  sim::Simulator& sim = world.sim;
  auto& store = dynamic_cast<stores::EFactoryStore&>(world.store());
  world.start();

  workload::Workload wl{workload::WorkloadConfig{
      .key_count = kKeys, .key_len = 32, .value_len = kValueLen}};
  stores::ClientOptions copts;
  copts.size_hint = {32, kValueLen};
  stores::KvClient& writer = world.make_client(copts);
  stores::KvClient& reader = world.make_client(copts);

  std::map<int, int> latest;  // key -> last acked version
  bool writes_done = false;
  int read_errors = 0;
  int stale_reads = 0;
  int reads_done = 0;

  sim.spawn([](stores::KvClient& c, workload::Workload& w,
               std::map<int, int>* acked, bool* done) -> sim::Task<void> {
    for (int version = 1; version <= 12; ++version) {
      for (int k = 0; k < kKeys; ++k) {
        const Status s = co_await c.put(w.key_at(k), value_of(k, version));
        if (s.is_ok()) (*acked)[k] = version;
      }
    }
    *done = true;
  }(writer, wl, &latest, &writes_done));

  sim.spawn([](sim::Simulator& s, stores::KvClient& c, workload::Workload& w,
               std::map<int, int>* acked, const bool* done, int* errors,
               int* stale, int* total) -> sim::Task<void> {
    Rng rng{7};
    while (!*done) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      const Expected<Bytes> got = co_await c.get(w.key_at(k));
      ++*total;
      const auto it = acked->find(k);
      if (!got.has_value()) {
        if (it != acked->end()) ++*errors;  // acked key must be readable
      } else {
        const int version = (*got)[1];
        // A read may lag the newest ack (it raced the write) but must
        // never be older than the version acked before the read started.
        if (it != acked->end() && version + 1 < it->second) ++*stale;
      }
      co_await sim::delay(s, 5 * timeconst::kMicrosecond);
    }
  }(sim, reader, wl, &latest, &writes_done, &read_errors, &stale_reads,
    &reads_done));

  // Progress reporter: poll pool occupancy and cleaning state.
  std::uint64_t last_rounds = 0;
  while (!writes_done) {
    sim.run_until(sim.now() + 200 * timeconst::kMicrosecond);
    const auto& stats = store.server_stats();
    if (stats.cleanings != last_rounds || store.cleaning_active()) {
      std::printf(
          "t=%7.2f ms  pool=%5.1f%% full  cleaning=%-3s  rounds=%llu  "
          "migrated=%llu objects\n",
          static_cast<double>(sim.now()) / 1e6,
          100.0 * store.working_pool().fill_fraction(),
          store.cleaning_active() ? "yes" : "no",
          static_cast<unsigned long long>(stats.cleanings),
          static_cast<unsigned long long>(stats.cleaned_objects));
      last_rounds = stats.cleanings;
    }
  }
  sim.run_until(sim.now() + timeconst::kMillisecond);

  std::printf("\nwrites: %d keys x 12 versions; reads during run: %d\n",
              kKeys, reads_done);
  std::printf("cleaning rounds completed: %llu (migrated %llu objects)\n",
              static_cast<unsigned long long>(store.server_stats().cleanings),
              static_cast<unsigned long long>(
                  store.server_stats().cleaned_objects));
  std::printf("read errors: %d, stale reads: %d\n", read_errors, stale_reads);

  // Final audit: every key must resolve to its last acked version.
  int wrong = 0;
  bool audit_done = false;
  sim.spawn([](stores::KvClient& c, workload::Workload& w,
               const std::map<int, int>& acked, int* bad,
               bool* done) -> sim::Task<void> {
    for (const auto& [k, version] : acked) {
      const Expected<Bytes> got = co_await c.get(w.key_at(k));
      if (!got.has_value() || *got != value_of(k, version)) ++*bad;
    }
    *done = true;
  }(reader, wl, latest, &wrong, &audit_done));
  while (!audit_done) sim.run_until(sim.now() + timeconst::kMillisecond);
  std::printf("final audit: %d/%d keys at their last acked version\n",
              kKeys - wrong, kKeys);
  return wrong == 0 && read_errors == 0 ? 0 : 1;
}
