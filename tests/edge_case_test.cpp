// Edge-case coverage for protocol error paths and unusual inputs.
#include <gtest/gtest.h>

#include "stores/baselines.hpp"
#include "stores/efactory.hpp"
#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::make_value;
using testutil::TestCluster;

// --------------------------------------------------------- odd geometries

TEST(EdgeGeometry, OneByteValueRoundtrips) {
  const Bytes key = to_bytes("tiny-value-key-000000000000000000");
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(key.size(), 1)};
  ASSERT_TRUE(tc.put_sync(key, Bytes{0x5A}).is_ok());
  tc.settle();
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, Bytes{0x5A});
}

TEST(EdgeGeometry, EmptyValueRoundtrips) {
  const Bytes key = to_bytes("empty-value-key-00000000000000000");
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(key.size(), 0)};
  ASSERT_TRUE(tc.put_sync(key, Bytes{}).is_ok());
  tc.settle();
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(EdgeGeometry, LongKeysWork) {
  Bytes key(256, 'k');
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(key.size(), 64)};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>('a' + i % 26);
  }
  ASSERT_TRUE(tc.put_sync(key, make_value(64, 1)).is_ok());
  tc.settle();
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, make_value(64, 1));
}

TEST(EdgeGeometry, BinaryKeysWithZeroBytesWork) {
  Bytes key(32, 0);
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(key.size(), 64)};
  key[7] = 0xFF;
  key[15] = 0x01;
  ASSERT_TRUE(tc.put_sync(key, make_value(64, 2)).is_ok());
  tc.settle();
  ASSERT_TRUE(tc.get_sync(key).has_value());
}

TEST(EdgeGeometry, WrongSizeHintFallsBackSafely) {
  // A client whose hint disagrees with the stored geometry must still get
  // the right value (via the RPC path, which carries true sizes).
  const Bytes key = to_bytes("hint-mismatch-key-000000000000000");
  const Bytes value = make_value(300, 3);
  TestCluster tc{SystemKind::kEFactory, testutil::small_config(),
                 testutil::hinted(key.size(), value.size())};
  ASSERT_TRUE(tc.put_sync(key, value).is_ok());
  tc.settle();

  KvClient& misinformed = tc.make_client(testutil::hinted(key.size(), 512));
  const Expected<Bytes> got = tc.get_sync(misinformed, key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, value);
  EXPECT_GE(misinformed.stats().gets_rpc_path, 1u);
}

// ------------------------------------------------------- handler edges

TEST(EdgeHandlers, SawPersistForUnknownObjectIsRejected) {
  // A kPersist whose object was never allocated through kAlloc (a buggy
  // or malicious client) must get an error, not crash the server.
  const Bytes key = to_bytes("still-alive-key-00000000000000000");
  TestCluster tc{SystemKind::kSaw,
                 testutil::small_config(), testutil::hinted(key.size(), 64)};
  auto& store = dynamic_cast<SawStore&>(tc.store());
  rpc::Connection conn{tc.sim, store.fabric(), store.node(),
                       store.directory(), store.next_qp_id()};
  PersistRequest req;
  req.object_off = store.pool_a().base();  // nothing allocated there
  req.klen = 8;
  req.vlen = 8;
  std::optional<StatusCode> status;
  tc.sim.spawn([](rpc::Connection& c, PersistRequest r,
                  std::optional<StatusCode>* out) -> sim::Task<void> {
    const Bytes raw = co_await c.call(kPersist, r.encode());
    *out = decode_status(raw);
  }(conn, req, &status));
  tc.run_until_done([&] { return status.has_value(); });
  EXPECT_EQ(*status, StatusCode::kInvalidArgument);
  // The server is still alive and serving.
  EXPECT_TRUE(tc.put_sync(key, make_value(64, 1)).is_ok());
}

TEST(EdgeHandlers, ImmStaleTokenIsIgnored) {
  // An immediate with a token the server does not know (e.g. duplicated
  // delivery) must be dropped without effect.
  TestCluster tc{SystemKind::kImm};
  auto& store = dynamic_cast<ImmStore&>(tc.store());
  rdma::QueuePair qp{tc.sim, store.fabric(), store.node(),
                     store.next_qp_id()};
  bool sent = false;
  tc.sim.spawn([](rdma::QueuePair& q, std::uint32_t pool_rkey,
                  bool* flag) -> sim::Task<void> {
    static_cast<void>(
        co_await q.write_with_imm(pool_rkey, 0, Bytes(8, 1), 424242));
    *flag = true;
  }(qp, store.pool_rkey(), &sent));
  tc.run_until_done([&] { return sent; });
  tc.settle();
  // Server consumed the message without crashing; nothing was indexed.
  EXPECT_GE(store.server_stats().requests, 1u);
}

TEST(EdgeHandlers, GetDuringLoadedTableMissesCleanly) {
  // Probe chains terminating at an empty slot: misses stay cheap and
  // correct even with many keys loaded.
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 64)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 64, .key_len = 32, .value_len = 64}};
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.settle();
  for (std::uint64_t k = 1000; k < 1010; ++k) {
    EXPECT_EQ(tc.get_sync(wl.key_at(k)).code(), StatusCode::kNotFound);
  }
}

TEST(EdgeHandlers, HashTableFullSurfacesToClient) {
  StoreConfig config = testutil::small_config();
  config.hash_buckets = 16;
  TestCluster tc{SystemKind::kEFactory, config, testutil::hinted(32, 32)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 64, .key_len = 32, .value_len = 32}};
  Status last = Status::ok();
  for (int k = 0; k < 32 && last.is_ok(); ++k) {
    last = tc.put_sync(wl.key_at(k), wl.value_for(k, 1));
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
}

// ------------------------------------------------------ repeated crashes

TEST(EdgeCrash, CrashRecoverCrashRecoverRemainsConsistent) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 128)};
  auto& store = dynamic_cast<EFactoryStore&>(tc.store());
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 16, .key_len = 32, .value_len = 128}};

  for (int round = 1; round <= 3; ++round) {
    KvClient& client = tc.make_client(testutil::hinted(32, 128));
    for (int k = 0; k < 16; ++k) {
      ASSERT_TRUE(
          tc.put_sync(client, wl.key_at(k), wl.value_for(k, round)).is_ok());
    }
    tc.run_until_done([&] { return store.verify_queue_depth() == 0; });
    tc.settle();
    store.crash();
    const EFactoryStore::RecoveryReport report = store.recover();
    EXPECT_EQ(report.keys_recovered, 16u) << "round " << round;
    KvClient& reader = tc.make_client(testutil::hinted(32, 128));
    for (int k = 0; k < 16; ++k) {
      const Expected<Bytes> got = tc.get_sync(reader, wl.key_at(k));
      ASSERT_TRUE(got.has_value()) << "round " << round << " key " << k;
      EXPECT_EQ(*got, wl.value_for(k, round));
    }
  }
}

// -------------------------------------------------- client-count extremes

TEST(EdgeScale, ThirtyTwoClientsComplete) {
  TestCluster tc{SystemKind::kEFactory,
                 testutil::small_config(), testutil::hinted(32, 64)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 128, .key_len = 32, .value_len = 64}};
  for (int k = 0; k < 128; ++k) {
    ASSERT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.settle();

  int done = 0;
  for (int c = 0; c < 32; ++c) {
    KvClient& client = tc.make_client(testutil::hinted(32, 64));
    tc.sim.spawn([](KvClient& cl, workload::Workload& w, int id,
                    int* out) -> sim::Task<void> {
      Rng rng{static_cast<std::uint64_t>(id) + 1};
      for (int i = 0; i < 50; ++i) {
        const auto op = w.next(rng);
        if (op.is_put) {
          static_cast<void>(co_await cl.put(w.key_at(op.key_index),
                                            w.value_for(op.key_index, 2)));
        } else {
          static_cast<void>(co_await cl.get(w.key_at(op.key_index)));
        }
      }
      ++*out;
    }(client, wl, c, &done));
  }
  tc.run_until_done([&] { return done == 32; });
  EXPECT_EQ(done, 32);
}

}  // namespace
}  // namespace efac::stores
