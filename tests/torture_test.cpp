// The everything-at-once suite:
//   * InPlace (Octopus-style) crash demonstration — in-place updates tear
//     the only copy (paper §7.2's motivation for log structuring), while
//     eFactory under the identical schedule stays recoverable;
//   * a full torture run: many clients, mixed PUT/GET/DELETE, forced log
//     cleaning, a crash, server restart, and a byte-exact final audit.
#include <gtest/gtest.h>

#include <map>

#include "stores/baselines.hpp"
#include "stores/efactory.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::TestCluster;

Bytes tagged_value(std::size_t len, int key, int version) {
  Bytes v(len);
  std::uint64_t state = mix64(static_cast<std::uint64_t>(key) * 104729 +
                              static_cast<std::uint64_t>(version));
  for (std::size_t i = 0; i < len; ++i) {
    if (i % 8 == 0) state = mix64(state + i);
    v[i] = static_cast<std::uint8_t>(state >> ((i % 8) * 8));
  }
  v[0] = static_cast<std::uint8_t>(key);
  v[1] = static_cast<std::uint8_t>(version);
  return v;
}

// ------------------------------------------------------ in-place tearing

TEST(InPlaceStoreTest, BasicRoundtripWorks) {
  TestCluster tc{SystemKind::kInPlace,
                 testutil::small_config(), testutil::hinted(32, 256)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 8, .key_len = 32, .value_len = 256}};
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), tagged_value(256, k, 1)).is_ok());
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), tagged_value(256, k, 2)).is_ok());
  }
  for (int k = 0; k < 8; ++k) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, tagged_value(256, k, 2));
  }
}

TEST(InPlaceStoreTest, OverwritesReuseTheSameRegion) {
  TestCluster tc{SystemKind::kInPlace,
                 testutil::small_config(), testutil::hinted(32, 128)};
  auto& store = dynamic_cast<InPlaceStore&>(tc.store());
  const Bytes key = to_bytes("inplace-key-000000000000000000000");
  ASSERT_TRUE(tc.put_sync(key, tagged_value(128, 1, 1)).is_ok());
  const std::size_t used_after_first = store.pool_a().used();
  for (int v = 2; v <= 6; ++v) {
    ASSERT_TRUE(tc.put_sync(key, tagged_value(128, 1, v)).is_ok());
  }
  EXPECT_EQ(store.pool_a().used(), used_after_first);  // no new versions
}

TEST(InPlaceStoreTest, CrashMidOverwriteTearsTheOnlyCopy) {
  // The §7.2 demonstration: overwrite a 4 KB value in place, crash while
  // the RDMA WRITE is landing. With partial eviction the surviving bytes
  // are a blend of old and new — "neither old nor new" — and the key is
  // unrecoverable. The identical schedule against eFactory recovers v1.
  auto run = [](SystemKind kind) {
    StoreConfig config = testutil::small_config();
    config.crash_policy.eviction_probability = 0.6;
    auto tc = std::make_unique<TestCluster>(kind, config,
                                            testutil::hinted(32, 4096));
    workload::Workload wl{workload::WorkloadConfig{
        .key_count = 2, .key_len = 32, .value_len = 4096}};
    // v1 durable everywhere: settle + read (forces persist for eFactory).
    EFAC_CHECK(tc->put_sync(wl.key_at(0), tagged_value(4096, 0, 1)).is_ok());
    tc->settle(2 * timeconst::kMillisecond);
    if (kind == SystemKind::kInPlace) {
      // Give InPlace the same head start: persist v1 explicitly (be
      // generous to the weaker system; it still loses).
      auto& store = dynamic_cast<InPlaceStore&>(tc->store());
      const auto slot = store.dir().find(kv::hash_key(wl.key_at(0)));
      store.arena().flush(store.dir().read(*slot).current(),
                          kv::ObjectLayout::total_size(32, 4096));
      store.dir().persist(*slot);
    }
    // Kick off v2 and crash mid-transfer.
    tc->sim.spawn([](KvClient& c, workload::Workload& w) -> sim::Task<void> {
      static_cast<void>(co_await c.put(w.key_at(0),
                                       tagged_value(4096, 0, 2)));
    }(*tc->client, wl));
    tc->sim.run_until(tc->sim.now() + 5'500);  // WRITE in flight
    tc->store().crash();
    return std::make_pair(std::move(tc), wl.key_at(0));
  };

  {
    auto [tc, key] = run(SystemKind::kInPlace);
    const Expected<Bytes> got = tc->store().recover_get(key);
    EXPECT_FALSE(got.has_value())
        << "in-place overwrite should have torn the only copy";
  }
  {
    auto [tc, key] = run(SystemKind::kEFactory);
    const Expected<Bytes> got = tc->store().recover_get(key);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    EXPECT_EQ(*got, tagged_value(4096, 0, 1));  // previous intact version
  }
}

// ------------------------------------------------------------ torture run

TEST(Torture, MixedOpsCleaningCrashRestartAudit) {
  constexpr int kKeys = 48;
  constexpr std::size_t kVlen = 512;
  StoreConfig config = testutil::small_config();
  config.pool_bytes = 2 * sizeconst::kMiB;  // tight: natural cleaning too
  TestCluster tc{SystemKind::kEFactory, config};
  auto& store = dynamic_cast<EFactoryStore&>(tc.store());
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = kKeys, .key_len = 32, .value_len = kVlen}};

  // Ground truth: last acked version per key (-1 = deleted).
  std::map<int, int> acked;
  int finished_actors = 0;
  constexpr int kActors = 6;

  for (int actor = 0; actor < kActors; ++actor) {
    KvClient& client = tc.make_client(testutil::hinted(32, kVlen));
    tc.sim.spawn([](sim::Simulator& s, KvClient& c, workload::Workload& w,
                    int id, std::map<int, int>* truth,
                    int* done) -> sim::Task<void> {
      Rng rng{static_cast<std::uint64_t>(id) * 7919 + 5};
      for (int i = 0; i < 120; ++i) {
        const int k = static_cast<int>(rng.next_below(kKeys));
        const double dice = rng.next_double();
        if (dice < 0.50) {
          const int version = id * 1000 + i;
          const Status st =
              co_await c.put(w.key_at(k), tagged_value(kVlen, k, version));
          if (st.is_ok()) (*truth)[k] = version;
        } else if (dice < 0.58) {
          const Status st = co_await c.del(w.key_at(k));
          if (st.is_ok()) (*truth)[k] = -1;
        } else {
          const Expected<Bytes> got = co_await c.get(w.key_at(k));
          if (got.has_value()) {
            // Any value read must be byte-exact for some write of key k.
            const int key_tag = (*got)[0];
            EXPECT_EQ(key_tag, k);
            // Versions form the known set {a*1000 + i : a<kActors, i<120};
            // the value's low version byte prunes the candidate scan.
            bool exact = false;
            for (int a = 0; a < kActors && !exact; ++a) {
              for (int i2 = 0; i2 < 120; ++i2) {
                const int candidate = a * 1000 + i2;
                if ((candidate & 0xFF) != (*got)[1]) continue;
                if (*got == tagged_value(kVlen, k, candidate)) {
                  exact = true;
                  break;
                }
              }
            }
            EXPECT_TRUE(exact) << "torn read on key " << k;
          }
        }
        co_await sim::delay(s, rng.next_below(2'000));
      }
      ++*done;
    }(tc.sim, client, wl, actor, &acked, &finished_actors));
  }

  // Force extra cleaning rounds while the actors run.
  tc.sim.spawn([](sim::Simulator& s, EFactoryStore& st) -> sim::Task<void> {
    for (int i = 0; i < 12; ++i) {
      co_await sim::delay(s, 150 * timeconst::kMicrosecond);
      st.force_log_cleaning();
    }
  }(tc.sim, store));

  tc.run_until_done([&] { return finished_actors == kActors; });
  tc.run_until_done([&] { return !store.cleaning_active(); });
  tc.run_until_done([&] { return store.verify_queue_depth() == 0; });
  tc.settle(2 * timeconst::kMillisecond);

  // Crash, restart, audit: every key matches the last ack exactly.
  store.crash();
  const EFactoryStore::RecoveryReport report = store.recover();
  EXPECT_EQ(report.keys_lost, 0u);

  KvClient& auditor = tc.make_client(testutil::hinted(32, kVlen));
  for (const auto& [k, version] : acked) {
    const Expected<Bytes> got = tc.get_sync(auditor, wl.key_at(k));
    if (version < 0) {
      EXPECT_FALSE(got.has_value()) << "deleted key " << k << " came back";
    } else {
      ASSERT_TRUE(got.has_value()) << "key " << k << " lost";
      EXPECT_EQ(*got, tagged_value(kVlen, k, version)) << "key " << k;
    }
  }
}

}  // namespace
}  // namespace efac::stores
