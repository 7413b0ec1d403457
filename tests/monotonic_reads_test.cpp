// Monotonic reads across crashes — the paper's central read guarantee —
// verified under load with interleaved readers and writers and a
// parameterized crash sweep.
//
// Property: if a client successfully GETs version v of key k, then after a
// crash at ANY later instant, recovery yields some version >= v of k (a
// read can never "travel back in time" across a failure). Erda, by design,
// cannot offer this; the companion test quantifies how often it breaks.
#include <gtest/gtest.h>

#include <map>

#include "stores/baselines.hpp"
#include "stores/efactory.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::TestCluster;

constexpr int kKeys = 12;
constexpr std::size_t kVlen = 512;

Bytes versioned(int key, int version) {
  Bytes v(kVlen, static_cast<std::uint8_t>(key * 13 + version * 7));
  v[0] = static_cast<std::uint8_t>(key);
  v[1] = static_cast<std::uint8_t>(version);
  return v;
}

struct ReadLog {
  std::map<int, int> newest_read;  // key -> highest version observed
};

sim::Task<void> writer_loop(KvClient& client, workload::Workload& wl) {
  for (int version = 1; version < 120; ++version) {
    for (int k = 0; k < kKeys; ++k) {
      static_cast<void>(
          co_await client.put(wl.key_at(k), versioned(k, version)));
    }
  }
}

sim::Task<void> reader_loop(sim::Simulator& sim, KvClient& client,
                            workload::Workload& wl, ReadLog& log) {
  Rng rng{0x5EAD};
  for (;;) {
    const int k = static_cast<int>(rng.next_below(kKeys));
    const Expected<Bytes> got = co_await client.get(wl.key_at(k));
    if (got.has_value() && got->size() == kVlen) {
      const int key_tag = (*got)[0];
      const int version = (*got)[1];
      if (key_tag == k && *got == versioned(k, version)) {
        auto& newest = log.newest_read[k];
        newest = std::max(newest, version);
      }
    }
    co_await sim::delay(sim, rng.next_below(1'500));
  }
}

class MonotonicSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(CrashInstants, MonotonicSweep,
                         ::testing::Range(0, 10));

TEST_P(MonotonicSweep, EFactoryReadsNeverTravelBackAcrossCrash) {
  StoreConfig config = testutil::small_config();
  config.crash_policy.eviction_probability = 0.0;  // harshest
  TestCluster tc{SystemKind::kEFactory, config};
  auto& store = dynamic_cast<EFactoryStore&>(tc.store());
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = kKeys, .key_len = 32, .value_len = kVlen}};

  KvClient& writer = tc.make_client(testutil::hinted(32, kVlen));
  KvClient& reader = tc.make_client(testutil::hinted(32, kVlen));
  ReadLog log;
  tc.sim.spawn(writer_loop(writer, wl));
  tc.sim.spawn(reader_loop(tc.sim, reader, wl, log));

  const SimTime crash_at =
      30'000 + static_cast<SimTime>(GetParam()) * 53'077;
  tc.sim.run_until(crash_at);
  store.crash();

  for (const auto& [k, newest_read] : log.newest_read) {
    const Expected<Bytes> got = store.recover_get(wl.key_at(k));
    ASSERT_TRUE(got.has_value())
        << "key " << k << ": version " << newest_read
        << " was read before the crash but nothing recovered";
    const int recovered_version = (*got)[1];
    EXPECT_GE(recovered_version, newest_read)
        << "key " << k << ": non-monotonic read across crash";
    EXPECT_EQ(*got, versioned(k, recovered_version));
  }
}

TEST(MonotonicContrast, ErdaBreaksTheSameProperty) {
  // The identical schedule against Erda: with no explicit persistence and
  // no eviction luck, values read before the crash vanish — the paper's
  // §7.2 criticism. We require at least one violation across the sweep to
  // keep the contrast honest (all ten instants violate in practice).
  int violations = 0;
  for (int instant = 0; instant < 10; ++instant) {
    StoreConfig config = testutil::small_config();
    config.crash_policy.eviction_probability = 0.0;
    TestCluster tc{SystemKind::kErda, config};
    auto& store = dynamic_cast<ErdaStore&>(tc.store());
    workload::Workload wl{workload::WorkloadConfig{
        .key_count = kKeys, .key_len = 32, .value_len = kVlen}};
    KvClient& writer = tc.make_client(testutil::hinted(32, kVlen));
    KvClient& reader = tc.make_client(testutil::hinted(32, kVlen));
    ReadLog log;
    tc.sim.spawn(writer_loop(writer, wl));
    tc.sim.spawn(reader_loop(tc.sim, reader, wl, log));
    tc.sim.run_until(30'000 + static_cast<SimTime>(instant) * 53'077);
    store.crash();
    for (const auto& [k, newest_read] : log.newest_read) {
      const Expected<Bytes> got = store.recover_get(wl.key_at(k));
      if (!got.has_value() ||
          (got->size() == kVlen && (*got)[1] < newest_read)) {
        ++violations;
      }
    }
  }
  EXPECT_GT(violations, 0) << "Erda unexpectedly provided monotonic reads";
}

}  // namespace
}  // namespace efac::stores
