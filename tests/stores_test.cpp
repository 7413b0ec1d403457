// Store-level functional tests: parameterized roundtrips across every
// system, plus system-specific behaviour (hybrid read, background
// verification, durability flags, protocol stats).
#include <gtest/gtest.h>

#include "stores/baselines.hpp"
#include "stores/efactory.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::make_value;
using testutil::TestCluster;

// ------------------------------------------------ parameterized roundtrips

class AllSystems : public ::testing::TestWithParam<SystemKind> {};

INSTANTIATE_TEST_SUITE_P(
    Systems, AllSystems,
    ::testing::Values(SystemKind::kEFactory, SystemKind::kEFactoryNoHr,
                      SystemKind::kSaw, SystemKind::kImm, SystemKind::kErda,
                      SystemKind::kForca, SystemKind::kRpc,
                      SystemKind::kCaNoPersist, SystemKind::kRcommit,
                      SystemKind::kInPlace),
    [](const ::testing::TestParamInfo<SystemKind>& pinfo) {
      std::string name{to_string(pinfo.param)};
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(AllSystems, PutGetRoundtrip) {
  const Bytes key = to_bytes("roundtrip-key-000000000000000000");
  const Bytes value = make_value(256, 1);
  TestCluster tc{GetParam(), testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  EXPECT_TRUE(tc.put_sync(key, value).is_ok());
  tc.settle();
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(*got, value);
}

TEST_P(AllSystems, OverwriteReturnsLatest) {
  const Bytes key = to_bytes("overwrite-key-0000000000000000000");
  TestCluster tc{GetParam(),
                 testutil::small_config(), testutil::hinted(key.size(), 128)};
  for (std::uint8_t round = 1; round <= 5; ++round) {
    EXPECT_TRUE(tc.put_sync(key, make_value(128, round)).is_ok());
  }
  tc.settle();
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, make_value(128, 5));
}

TEST_P(AllSystems, MissingKeyIsNotFound) {
  TestCluster tc{GetParam(),
                 testutil::small_config(), testutil::hinted(32, 128)};
  const Expected<Bytes> got = tc.get_sync(to_bytes(
      "never-written-key-00000000000000"));
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(got.code(), StatusCode::kNotFound);
}

TEST_P(AllSystems, ManyKeysManyClients) {
  TestCluster tc{GetParam(),
                 testutil::small_config(), testutil::hinted(32, 64)};
  KvClient& c2 = tc.make_client(testutil::hinted(32, 64));
  workload::Workload wl{workload::WorkloadConfig{
      .mix = workload::Mix::kUpdateOnly, .key_count = 40, .value_len = 64}};
  for (std::uint64_t k = 0; k < 40; ++k) {
    KvClient& c = (k % 2 == 0) ? *tc.client : c2;
    EXPECT_TRUE(tc.put_sync(c, wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.settle();
  for (std::uint64_t k = 0; k < 40; ++k) {
    KvClient& c = (k % 3 == 0) ? *tc.client : c2;
    const Expected<Bytes> got = tc.get_sync(c, wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, wl.value_for(k, 1));
  }
}

TEST_P(AllSystems, LargeValuesRoundtrip) {
  const Bytes key = to_bytes("large-value-key-00000000000000000");
  const Bytes value = make_value(4096, 9);
  TestCluster tc{GetParam(), testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  EXPECT_TRUE(tc.put_sync(key, value).is_ok());
  tc.settle(2 * timeconst::kMillisecond);
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, value);
}

TEST_P(AllSystems, PoolExhaustionSurfacesAsErrorOrTriggersCleaning) {
  StoreConfig config = testutil::small_config();
  config.pool_bytes = 8 * sizeconst::kKiB;
  TestCluster tc{GetParam(), config, testutil::hinted(32, 1024)};
  Status last = Status::ok();
  for (int i = 0; i < 64 && last.is_ok(); ++i) {
    last = tc.put_sync(to_bytes("exhaust-key-00000000000000000000"),
                       make_value(1024, static_cast<std::uint8_t>(i)));
  }
  const bool is_efactory = GetParam() == SystemKind::kEFactory ||
                           GetParam() == SystemKind::kEFactoryNoHr;
  if (is_efactory) {
    // Log cleaning reclaims stale versions, so same-key overwrites never
    // exhaust the pool.
    EXPECT_TRUE(last.is_ok());
    EXPECT_GE(tc.store().server_stats().cleanings, 1u);
  } else if (GetParam() == SystemKind::kInPlace) {
    // In-place overwrites of one key reuse its region: no growth at all.
    EXPECT_TRUE(last.is_ok());
  } else {
    EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
  }
}

// --------------------------------------------------------------- eFactory

struct EFactoryFixture : ::testing::Test {
  TestCluster tc{SystemKind::kEFactory};
  EFactoryStore& store() {
    return dynamic_cast<EFactoryStore&>(tc.store());
  }
  // Per-test geometries differ, so each test swaps in a hinted client.
  void hint(std::size_t klen, std::size_t vlen) {
    tc.client = &tc.make_client(testutil::hinted(klen, vlen));
  }
};

TEST_F(EFactoryFixture, BackgroundThreadSetsDurabilityFlag) {
  const Bytes key = to_bytes("bg-verify-key-0000000000000000000");
  const Bytes value = make_value(512, 3);
  hint(key.size(), value.size());
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  // Give the background thread time to verify and persist.
  tc.run_until_done([&] { return store().verify_queue_depth() == 0; });
  tc.settle();
  EXPECT_GE(store().server_stats().bg_verified, 1u);

  // The object's flag must be set and its bytes persisted.
  const auto slot = store().dir().find(kv::hash_key(key));
  ASSERT_TRUE(slot.has_value());
  const MemOffset off = store().dir().read(*slot).current();
  kv::ObjectRef obj{store().arena(), off};
  const kv::ObjectMeta meta = obj.read_header();
  EXPECT_TRUE(obj.is_durable(meta.klen, meta.vlen));
  // flag == 1 promises the value bytes are in the persisted image (the
  // flag word itself is volatile by design: recovery re-verifies by CRC).
  const Bytes persisted_value = store().arena().persisted_bytes(
      off + kv::ObjectLayout::kHeaderSize + meta.klen, meta.vlen);
  EXPECT_EQ(persisted_value, value);
}

TEST_F(EFactoryFixture, HybridReadUsesPureRdmaAfterVerification) {
  const Bytes key = to_bytes("hybrid-key-0000000000000000000000");
  const Bytes value = make_value(256, 7);
  hint(key.size(), value.size());
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  tc.run_until_done([&] { return store().verify_queue_depth() == 0; });
  tc.settle();

  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(tc.client->stats().gets_pure_rdma, 1u);
  EXPECT_EQ(tc.client->stats().gets_rpc_path, 0u);
}

TEST_F(EFactoryFixture, ReadOfUnverifiedObjectFallsBackToRpc) {
  // Stop the background thread from winning the race by reading
  // immediately after the PUT completes (bg idle ticks are 2 µs but CRC
  // verification takes time; with a large value the GET usually arrives
  // first). To make it deterministic, enqueue the GET right behind the PUT
  // on a second client.
  const Bytes key = to_bytes("fallback-key-00000000000000000000");
  const Bytes value = make_value(4096, 5);
  KvClient& reader = tc.make_client(testutil::hinted(key.size(), value.size()));
  hint(key.size(), value.size());

  bool put_done = false;
  std::optional<Expected<Bytes>> got;
  tc.sim.spawn([](KvClient& writer, Bytes k, Bytes v,
                  bool* done) -> sim::Task<void> {
    static_cast<void>(co_await writer.put(std::move(k), std::move(v)));
    *done = true;
  }(*tc.client, key, value, &put_done));
  tc.sim.spawn([](sim::Simulator& s, KvClient& r, Bytes k, bool* put_flag,
                  std::optional<Expected<Bytes>>* out) -> sim::Task<void> {
    // Busy-wait (virtually) until the PUT acked, then read immediately.
    while (!*put_flag) co_await sim::delay(s, 200);
    out->emplace(co_await r.get(std::move(k)));
  }(tc.sim, reader, key, &put_done, &got));
  tc.run_until_done([&] { return got.has_value(); });

  ASSERT_TRUE(got->has_value()) << got->status().to_string();
  EXPECT_EQ(**got, value);
  // The value was correct even though durability had not yet been flagged
  // — the RPC path performed the selective durability guarantee.
  EXPECT_GE(reader.stats().gets_rpc_path + reader.stats().gets_pure_rdma,
            1u);
}

TEST_F(EFactoryFixture, WithoutHybridReadAllGetsUseRpc) {
  const Bytes key = to_bytes("no-hr-key-00000000000000000000000");
  const Bytes value = make_value(128, 2);
  TestCluster no_hr{SystemKind::kEFactoryNoHr, testutil::small_config(),
                    testutil::hinted(key.size(), value.size())};
  ASSERT_TRUE(no_hr.put_sync(key, value).is_ok());
  no_hr.settle();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(no_hr.get_sync(key).has_value());
  }
  EXPECT_EQ(no_hr.client->stats().gets_rpc_path, 3u);
  EXPECT_EQ(no_hr.client->stats().gets_pure_rdma, 0u);
}

TEST_F(EFactoryFixture, RpcGetHitsDurabilityFlagFastPath) {
  const Bytes key = to_bytes("durhit-key-0000000000000000000000");
  const Bytes value = make_value(128, 4);
  TestCluster no_hr{SystemKind::kEFactoryNoHr, testutil::small_config(),
                    testutil::hinted(key.size(), value.size())};
  auto& st = dynamic_cast<EFactoryStore&>(no_hr.store());
  ASSERT_TRUE(no_hr.put_sync(key, value).is_ok());
  no_hr.run_until_done([&] { return st.verify_queue_depth() == 0; });
  no_hr.settle();
  const std::uint64_t crc_before = st.server_stats().crc_checks;
  ASSERT_TRUE(no_hr.get_sync(key).has_value());
  // Durability check hit: no CRC on the read path.
  EXPECT_EQ(st.server_stats().crc_checks, crc_before);
  EXPECT_GE(st.server_stats().get_durability_hits, 1u);
}

TEST_F(EFactoryFixture, TimedOutIncompleteObjectIsInvalidated) {
  // Allocate via the RPC path but never perform the RDMA write: after the
  // timeout the background thread must invalidate the version, and a GET
  // must fall back to the previous intact version.
  const Bytes key = to_bytes("timeout-key-000000000000000000000");
  const Bytes good = make_value(128, 1);
  hint(key.size(), 128);
  ASSERT_TRUE(tc.put_sync(key, good).is_ok());
  tc.run_until_done([&] { return store().verify_queue_depth() == 0; });

  // Manually send an alloc for the same key and drop the data write.
  rpc::Connection rogue{tc.sim, store().fabric(), store().node(),
                        store().directory(), store().next_qp_id()};
  AllocRequest req;
  req.klen = static_cast<std::uint32_t>(key.size());
  req.vlen = 128;
  req.crc = 0xDEAD;  // will never match
  req.key = key;
  bool alloc_done = false;
  tc.sim.spawn([](rpc::Connection& conn, AllocRequest r,
                  bool* done) -> sim::Task<void> {
    static_cast<void>(co_await conn.call(kAlloc, r.encode()));
    *done = true;
  }(rogue, req, &alloc_done));
  tc.run_until_done([&] { return alloc_done; });

  // Wait out the object timeout; the background thread invalidates it.
  tc.settle(store().config().object_timeout_ns + 2 * timeconst::kMillisecond);
  EXPECT_GE(store().server_stats().bg_timeouts, 1u);

  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(*got, good);  // previous intact version
}

// -------------------------------------------------------------------- IMM

TEST(ImmStoreTest, PutIsDurableAtAck) {
  const Bytes key = to_bytes("imm-durable-key-00000000000000000");
  const Bytes value = make_value(1024, 6);
  TestCluster tc{SystemKind::kImm, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  // No settling: the ack itself is the durability point.
  auto& store = dynamic_cast<ImmStore&>(tc.store());
  store.crash();
  const Expected<Bytes> got = store.recover_get(key);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(*got, value);
}

// -------------------------------------------------------------------- SAW

TEST(SawStoreTest, PutIsDurableAtAck) {
  const Bytes key = to_bytes("saw-durable-key-00000000000000000");
  const Bytes value = make_value(1024, 8);
  TestCluster tc{SystemKind::kSaw, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  auto& store = dynamic_cast<SawStore&>(tc.store());
  store.crash();
  const Expected<Bytes> got = store.recover_get(key);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(*got, value);
}

TEST(SawStoreTest, MetadataExposedOnlyAfterDurability) {
  // Between alloc and persist the key must be unreadable (entry updated at
  // the durability point, not at allocation).
  const Bytes key = to_bytes("saw-ordering-key-0000000000000000");
  TestCluster tc{SystemKind::kSaw,
                 testutil::small_config(), testutil::hinted(key.size(), 64)};
  auto& store = dynamic_cast<SawStore&>(tc.store());

  rpc::Connection conn{tc.sim, store.fabric(), store.node(),
                       store.directory(), store.next_qp_id()};
  AllocRequest req;
  req.klen = static_cast<std::uint32_t>(key.size());
  req.vlen = 64;
  req.crc = 0;
  req.key = key;
  bool done = false;
  tc.sim.spawn([](rpc::Connection& c, AllocRequest r,
                  bool* flag) -> sim::Task<void> {
    static_cast<void>(co_await c.call(kAlloc, r.encode()));
    *flag = true;
  }(conn, req, &done));
  tc.run_until_done([&] { return done; });

  // Allocated but never persisted: invisible.
  EXPECT_EQ(tc.get_sync(key).code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------- Erda

TEST(ErdaStoreTest, ClientVerifiesCrcOnReads) {
  const Bytes key = to_bytes("erda-crc-key-00000000000000000000");
  const Bytes value = make_value(512, 2);
  TestCluster tc{SystemKind::kErda, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  tc.settle();
  ASSERT_TRUE(tc.get_sync(key).has_value());
  EXPECT_GE(tc.client->stats().client_crc_checks, 1u);
}

TEST(ErdaStoreTest, TornHeadFallsBackToPreviousVersion) {
  const Bytes key = to_bytes("erda-torn-key-0000000000000000000");
  TestCluster tc{SystemKind::kErda,
                 testutil::small_config(), testutil::hinted(key.size(), 256)};
  auto& store = dynamic_cast<ErdaStore&>(tc.store());
  const Bytes v1 = make_value(256, 1);
  ASSERT_TRUE(tc.put_sync(key, v1).is_ok());

  // Corrupt the head version in place (simulating a torn write) after a
  // second PUT established it.
  const Bytes v2 = make_value(256, 2);
  ASSERT_TRUE(tc.put_sync(key, v2).is_ok());
  const auto slot = store.table().find(kv::hash_key(key));
  ASSERT_TRUE(slot.has_value());
  const auto versions = store.table().read_versions(*slot);
  store.arena().store(versions.cur + kv::ObjectLayout::kHeaderSize +
                          key.size() + 5,
                      to_bytes("XXXX"));

  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(*got, v1);  // fell back to the previous version
  EXPECT_GE(tc.client->stats().version_rereads, 1u);
}

// ------------------------------------------------------------------ Forca

TEST(ForcaStoreTest, ServerVerifiesEveryRead) {
  const Bytes key = to_bytes("forca-crc-key-0000000000000000000");
  const Bytes value = make_value(512, 3);
  TestCluster tc{SystemKind::kForca, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  auto& store = dynamic_cast<ForcaStore&>(tc.store());
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  tc.settle();
  const std::uint64_t before = store.server_stats().crc_checks;
  ASSERT_TRUE(tc.get_sync(key).has_value());
  ASSERT_TRUE(tc.get_sync(key).has_value());
  // No durability flag: Forca pays CRC on EVERY read, even repeats.
  EXPECT_EQ(store.server_stats().crc_checks, before + 2);
}

TEST(ForcaStoreTest, ReadPathPersistsData) {
  const Bytes key = to_bytes("forca-persist-key-000000000000000");
  const Bytes value = make_value(256, 4);
  TestCluster tc{SystemKind::kForca, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  auto& store = dynamic_cast<ForcaStore&>(tc.store());
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  tc.settle();
  ASSERT_TRUE(tc.get_sync(key).has_value());
  // After the read, the object must be durable (read-path persisting).
  const auto slot = store.dir().find(kv::hash_key(key));
  const MemOffset off = store.dir().read(*slot).current();
  EXPECT_FALSE(store.arena().is_dirty(
      off, kv::ObjectLayout::total_size(key.size(), value.size())));
}

// -------------------------------------------------------------------- RPC

TEST(RpcStoreTest, PutIsDurableAtAck) {
  const Bytes key = to_bytes("rpc-durable-key-00000000000000000");
  const Bytes value = make_value(2048, 5);
  TestCluster tc{SystemKind::kRpc, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  auto& store = dynamic_cast<RpcStore&>(tc.store());
  store.crash();
  const Expected<Bytes> got = store.recover_get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, value);
}

// --------------------------------------------------------------------- CA

TEST(CaStoreTest, NoPersistenceGuarantee) {
  // The motivating failure: CA acks a PUT whose data then vanishes in a
  // crash (nothing was flushed).
  const Bytes key = to_bytes("ca-lost-key-000000000000000000000");
  const Bytes value = make_value(1024, 6);
  TestCluster tc{SystemKind::kCaNoPersist, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  auto& store = dynamic_cast<CaStore&>(tc.store());
  nvm::CrashPolicy nothing_survives{.eviction_probability = 0.0};
  store.arena().crash(nothing_survives);
  const Expected<Bytes> got = store.recover_get(key);
  EXPECT_FALSE(got.has_value());
}

}  // namespace
}  // namespace efac::stores
