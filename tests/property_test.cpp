// Property-style parameterized sweeps across systems, sizes, crash
// instants, eviction probabilities and placement orders.
//
// The invariants:
//   P1  read-your-writes: after an acked PUT (and background settling), a
//       GET returns exactly the written bytes — every system, every size.
//   P2  atomic updates: whatever a log-structured system recovers after a
//       crash is byte-exact some previously issued write, never a blend.
//   P3  recovery is total: recover_get never throws, even on garbage.
//   P4  durable-at-ack holds under shuffled DMA placement too.
#include <gtest/gtest.h>

#include "stores/baselines.hpp"
#include "stores/efactory.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::TestCluster;

Bytes tagged_value(std::size_t len, int key, int version) {
  EFAC_CHECK(len >= 2);
  Bytes v(len);
  std::uint64_t state = mix64(static_cast<std::uint64_t>(key) * 7919 +
                              static_cast<std::uint64_t>(version));
  for (std::size_t i = 0; i < len; ++i) {
    if (i % 8 == 0) state = mix64(state + i);
    v[i] = static_cast<std::uint8_t>(state >> ((i % 8) * 8));
  }
  v[0] = static_cast<std::uint8_t>(key);
  v[1] = static_cast<std::uint8_t>(version);
  return v;
}

// ------------------------------------------------------- P1: roundtrips

class RoundtripSweep
    : public ::testing::TestWithParam<std::tuple<SystemKind, std::size_t>> {};

INSTANTIATE_TEST_SUITE_P(
    AllSystemsAllSizes, RoundtripSweep,
    ::testing::Combine(
        ::testing::Values(SystemKind::kEFactory, SystemKind::kEFactoryNoHr,
                          SystemKind::kSaw, SystemKind::kImm,
                          SystemKind::kErda, SystemKind::kForca,
                          SystemKind::kRpc, SystemKind::kCaNoPersist,
                          SystemKind::kRcommit),
        ::testing::Values(8u, 64u, 100u, 512u, 2048u, 4096u)),
    [](const auto& pinfo) {
      std::string name{to_string(std::get<0>(pinfo.param))};
      name += "_" + std::to_string(std::get<1>(pinfo.param)) + "B";
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(RoundtripSweep, ReadYourWritesExactBytes) {
  const auto [kind, vlen] = GetParam();
  TestCluster tc{kind, testutil::small_config(), testutil::hinted(32, vlen)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 8, .key_len = 32, .value_len = vlen}};
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(
        tc.put_sync(wl.key_at(k),
                    tagged_value(vlen, k, 1))
            .is_ok());
  }
  tc.settle(2 * timeconst::kMillisecond);
  for (int k = 0; k < 8; ++k) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, tagged_value(vlen, k, 1)) << "key " << k;
  }
}

// ------------------------------------------- P2/P3: crash × eviction

struct CrashParams {
  SystemKind kind;
  double eviction;
  int instant;
};

class CrashMatrix : public ::testing::TestWithParam<CrashParams> {};

std::vector<CrashParams> crash_matrix() {
  std::vector<CrashParams> out;
  for (const SystemKind kind :
       {SystemKind::kEFactory, SystemKind::kSaw, SystemKind::kImm,
        SystemKind::kErda, SystemKind::kForca, SystemKind::kRcommit}) {
    for (const double eviction : {0.0, 0.5, 1.0}) {
      for (const int instant : {0, 1, 2}) {
        out.push_back({kind, eviction, instant});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CrashMatrix, ::testing::ValuesIn(crash_matrix()),
    [](const ::testing::TestParamInfo<CrashParams>& pinfo) {
      std::string name{to_string(pinfo.param.kind)};
      name += "_e" + std::to_string(static_cast<int>(
                         pinfo.param.eviction * 100));
      name += "_t" + std::to_string(pinfo.param.instant);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(CrashMatrix, RecoveredValuesAreExactWrites) {
  const CrashParams p = GetParam();
  StoreConfig config = testutil::small_config();
  config.crash_policy.eviction_probability = p.eviction;
  TestCluster tc{p.kind, config, testutil::hinted(32, 512)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 6, .key_len = 32, .value_len = 512}};

  tc.sim.spawn([](KvClient& c, workload::Workload& w) -> sim::Task<void> {
    for (int v = 1; v < 30; ++v) {
      for (int k = 0; k < 6; ++k) {
        static_cast<void>(
            co_await c.put(w.key_at(k), tagged_value(512, k, v)));
      }
    }
  }(*tc.client, wl));
  tc.sim.run_until(15'000 + static_cast<SimTime>(p.instant) * 61'221);
  tc.store().crash();

  for (int k = 0; k < 6; ++k) {
    Expected<Bytes> got{Status{StatusCode::kInternal}};
    // P3: recovery must never throw.
    ASSERT_NO_THROW(got = tc.store().recover_get(wl.key_at(k)));
    if (got.has_value()) {
      // P2: exact bytes of some write of THIS key.
      ASSERT_EQ(got->size(), 512u);
      const int key_tag = (*got)[0];
      const int version = (*got)[1];
      EXPECT_EQ(key_tag, k);
      EXPECT_EQ(*got, tagged_value(512, key_tag, version))
          << to_string(p.kind) << ": recovered a torn value";
    }
  }
}

// -------------------------------------- P3: recovery over fuzzed bytes

class RecoveryFuzz : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz, ::testing::Range(0, 8));

TEST_P(RecoveryFuzz, GarbageNeverCrashesRecovery) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 256)};
  auto& store = dynamic_cast<EFactoryStore&>(tc.store());
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 8, .key_len = 32, .value_len = 256}};
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(
        tc.put_sync(wl.key_at(k), tagged_value(256, k, 1)).is_ok());
  }
  tc.settle();

  // Smash random 64-byte stretches of the data pools AND the hash region
  // with garbage, then crash and attempt recovery for every key.
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 0x9E37 + 17};
  nvm::Arena& arena = store.arena();
  for (int blast = 0; blast < 40; ++blast) {
    Bytes junk(64);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    const MemOffset off =
        rng.next_below(arena.size() - junk.size()) & ~MemOffset{7};
    arena.store(off, junk);
    if (rng.next_bool(0.5)) arena.flush(off, junk.size());
  }
  arena.crash();

  for (int k = 0; k < 8; ++k) {
    Expected<Bytes> got{Status{StatusCode::kInternal}};
    ASSERT_NO_THROW(got = store.recover_get(wl.key_at(k))) << "key " << k;
    if (got.has_value()) {
      // If anything is returned it must still be an exact write.
      EXPECT_EQ(*got, tagged_value(256, (*got)[0], (*got)[1]));
    }
  }
  // The full restart path must also hold up against garbage.
  EXPECT_NO_THROW(static_cast<void>(store.recover()));
}

// --------------------------------------- P4: shuffled DMA placement

class PlacementSweep : public ::testing::TestWithParam<SystemKind> {};

INSTANTIATE_TEST_SUITE_P(DurableSystems, PlacementSweep,
                         ::testing::Values(SystemKind::kEFactory,
                                           SystemKind::kSaw,
                                           SystemKind::kImm,
                                           SystemKind::kRcommit));

TEST_P(PlacementSweep, DurableAtAckWithShuffledPlacement) {
  StoreConfig config = testutil::small_config();
  config.fabric.placement = nvm::PlacementOrder::kShuffled;
  config.crash_policy.eviction_probability = 0.0;
  TestCluster tc{GetParam(), config, testutil::hinted(32, 2048)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 4, .key_len = 32, .value_len = 2048}};

  std::map<int, int> acked;
  bool done = false;
  tc.sim.spawn([](KvClient& c, workload::Workload& w, std::map<int, int>* a,
                  bool* flag) -> sim::Task<void> {
    for (int v = 1; v <= 3; ++v) {
      for (int k = 0; k < 4; ++k) {
        const Status s =
            co_await c.put(w.key_at(k), tagged_value(2048, k, v));
        if (s.is_ok()) (*a)[k] = v;
      }
    }
    *flag = true;
  }(*tc.client, wl, &acked, &done));
  tc.run_until_done([&] { return done; });

  if (GetParam() == SystemKind::kEFactory) {
    auto& store = dynamic_cast<EFactoryStore&>(tc.store());
    tc.run_until_done([&] { return store.verify_queue_depth() == 0; });
    tc.settle();
  }
  tc.store().crash();
  for (const auto& [k, v] : acked) {
    const Expected<Bytes> got = tc.store().recover_get(wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << to_string(GetParam()) << " key " << k;
    if (GetParam() != SystemKind::kEFactory) {
      // Hard durable-at-ack systems must recover the exact acked version.
      EXPECT_EQ(*got, tagged_value(2048, k, v));
    } else {
      // eFactory (async durability): some exact write of this key.
      EXPECT_EQ(*got, tagged_value(2048, (*got)[0], (*got)[1]));
    }
  }
}

}  // namespace
}  // namespace efac::stores
