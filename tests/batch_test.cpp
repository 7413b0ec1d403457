// Tests for the async/batched client surface:
//   * put_batch/get_batch roundtrips on every system (batch-reserve path
//     on eFactory/IMM/Erda, pipelined fallback elsewhere),
//   * the shared kAllocBatch RPC (one server request per batch),
//   * out-of-order async completion and window saturation,
//   * per-op status fan-out when a batch fails partially,
//   * batch members re-entering the retry tail under fault plans,
//   * bit-identical repeated batched runs (dispatch-hash determinism).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "store_test_util.hpp"
#include "stores/baselines.hpp"
#include "stores/efactory.hpp"
#include "workload/ycsb.hpp"

namespace efac::stores {
namespace {

using testutil::make_value;
using testutil::TestCluster;

std::vector<KvClient::PutOp> make_batch(const workload::Workload& wl,
                                        int count, int version,
                                        std::size_t vlen) {
  std::vector<KvClient::PutOp> ops;
  ops.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    ops.push_back({wl.key_at(k),
                   make_value(vlen, static_cast<std::uint8_t>(version))});
  }
  return ops;
}

// --------------------------------------------------------- every system

class BatchAllSystems : public ::testing::TestWithParam<SystemKind> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchAllSystems, ::testing::ValuesIn(all_systems()),
    [](const ::testing::TestParamInfo<SystemKind>& pinfo) {
      std::string name{to_string(pinfo.param)};
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(BatchAllSystems, PutBatchThenGetBatchRoundtrips) {
  TestCluster tc{GetParam(), testutil::small_config(),
                 testutil::hinted(32, 256)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 16, .key_len = 32, .value_len = 256}};

  bool done = false;
  tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                  bool* flag) -> sim::Task<void> {
    const std::vector<Status> statuses =
        co_await c.put_batch(make_batch(w, 16, 1, 256));
    EXPECT_EQ(statuses.size(), 16u);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_TRUE(statuses[i].is_ok()) << "member " << i;
    }
    std::vector<Bytes> keys;
    for (int k = 0; k < 16; ++k) keys.push_back(w.key_at(k));
    const std::vector<Expected<Bytes>> got =
        co_await c.get_batch(std::move(keys));
    EXPECT_EQ(got.size(), 16u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].has_value()) << "member " << i;
      if (got[i].has_value()) {
        EXPECT_EQ(*got[i], make_value(256, 1)) << "member " << i;
      }
    }
    *flag = true;
  }(*tc.client, wl, &done));
  tc.run_until_done([&] { return done; });

  EXPECT_EQ(tc.client->stats().batches, 2u);
  const metrics::Counter* batches =
      tc.client->metrics().find_counter("client.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->value(), 2u);
}

// --------------------------------------------------- shared alloc RPC

TEST(BatchAllocRpc, OneServerRoundTripPerBatchOnEFactoryAndErda) {
  for (const SystemKind kind : {SystemKind::kEFactory, SystemKind::kErda}) {
    TestCluster tc{kind, testutil::small_config(),
                   testutil::hinted(32, 256)};
    workload::Workload wl{workload::WorkloadConfig{
        .key_count = 16, .key_len = 32, .value_len = 256}};
    StoreBase& store = tc.store();

    const std::uint64_t before = store.server_stats().requests;
    bool done = false;
    tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                    bool* flag) -> sim::Task<void> {
      const std::vector<Status> statuses =
          co_await c.put_batch(make_batch(w, 16, 1, 256));
      for (const Status& s : statuses) EXPECT_TRUE(s.is_ok());
      *flag = true;
    }(*tc.client, wl, &done));
    tc.run_until_done([&] { return done; });

    // The whole 16-member batch cost exactly ONE server request: the
    // shared kAllocBatch RPC. The payload writes are one-sided.
    EXPECT_EQ(store.server_stats().requests, before + 1)
        << to_string(kind);
    EXPECT_GE(store.server_stats().allocs, 16u) << to_string(kind);
  }
}

TEST(BatchAllocRpc, ImmBatchCostsOneRpcPlusImmediates) {
  TestCluster tc{SystemKind::kImm, testutil::small_config(),
                 testutil::hinted(32, 256)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 8, .key_len = 32, .value_len = 256}};
  StoreBase& store = tc.store();

  const std::uint64_t before = store.server_stats().requests;
  bool done = false;
  tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                  bool* flag) -> sim::Task<void> {
    const std::vector<Status> statuses =
        co_await c.put_batch(make_batch(w, 8, 1, 256));
    for (const Status& s : statuses) EXPECT_TRUE(s.is_ok());
    *flag = true;
  }(*tc.client, wl, &done));
  tc.run_until_done([&] { return done; });

  // One shared alloc RPC plus one WRITE_WITH_IMM notification per member
  // (IMM's durability point is the server-side ack of each immediate).
  EXPECT_EQ(store.server_stats().requests, before + 1 + 8);
}

// ------------------------------------------------- async surface basics

TEST(AsyncSurface, CompletionsRedeemOutOfOrder) {
  TestCluster tc{SystemKind::kEFactory, testutil::small_config(),
                 testutil::hinted(32, 128)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 4, .key_len = 32, .value_len = 128}};

  bool done = false;
  tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                  bool* flag) -> sim::Task<void> {
    // Submit three PUTs, redeem newest-first: handles are independent.
    KvClient::OpHandle puts[3];
    for (int k = 0; k < 3; ++k) {
      puts[k] = c.put_async(w.key_at(k), make_value(128, 1));
    }
    for (int k = 2; k >= 0; --k) {
      EXPECT_TRUE((co_await c.await_status(puts[k])).is_ok()) << k;
    }
    // Same for GETs, interleaved with a DEL on an unrelated key.
    KvClient::OpHandle gets[3];
    for (int k = 0; k < 3; ++k) gets[k] = c.get_async(w.key_at(k));
    const KvClient::OpHandle del = c.del_async(w.key_at(3));
    for (int k = 2; k >= 0; --k) {
      const Expected<Bytes> got = co_await c.await_value(gets[k]);
      EXPECT_TRUE(got.has_value()) << k;
      if (got.has_value()) {
        EXPECT_EQ(*got, make_value(128, 1)) << k;
      }
    }
    // The DEL of a never-written key resolves independently.
    EXPECT_EQ((co_await c.await_status(del)).code(),
              StatusCode::kNotFound);
    *flag = true;
  }(*tc.client, wl, &done));
  tc.run_until_done([&] { return done; });
  EXPECT_EQ(tc.client->inflight(), 0u);
}

TEST(AsyncSurface, WindowBoundsInflightOps) {
  ClientOptions options = testutil::hinted(32, 128);
  options.max_inflight = 4;
  TestCluster tc{SystemKind::kEFactory, testutil::small_config(), options};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 16, .key_len = 32, .value_len = 128}};

  bool done = false;
  tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                  bool* flag) -> sim::Task<void> {
    std::vector<KvClient::OpHandle> handles;
    for (int k = 0; k < 16; ++k) {
      handles.push_back(c.put_async(w.key_at(k), make_value(128, 2)));
    }
    for (const KvClient::OpHandle& h : handles) {
      EXPECT_TRUE((co_await c.await_status(h)).is_ok());
    }
    *flag = true;
  }(*tc.client, wl, &done));
  tc.run_until_done([&] { return done; });

  // 16 submissions against a window of 4: saturated but never exceeded.
  EXPECT_EQ(tc.client->inflight_peak(), 4u);
  EXPECT_EQ(tc.client->inflight(), 0u);
  const metrics::Gauge* peak =
      tc.client->metrics().find_gauge("client.inflight_peak");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value(), 4.0);
}

// -------------------------------------------------- partial batch failure

TEST(BatchFanOut, PartialAllocFailureFailsOnlyAffectedMembers) {
  // A pool too small for the whole batch: early members allocate, later
  // ones get kOutOfSpace — and ONLY they fail.
  StoreConfig config = testutil::small_config();
  config.pool_bytes = 256 * sizeconst::kKiB;
  constexpr std::size_t kVlen = 30 * sizeconst::kKiB;
  TestCluster tc{SystemKind::kEFactory, config, testutil::hinted(32, kVlen)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 12, .key_len = 32, .value_len = kVlen}};

  std::vector<Status> statuses;
  bool done = false;
  tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                  std::vector<Status>* out, bool* flag) -> sim::Task<void> {
    *out = co_await c.put_batch(make_batch(w, 12, 1, kVlen));
    *flag = true;
  }(*tc.client, wl, &statuses, &done));
  tc.run_until_done([&] { return done; });

  ASSERT_EQ(statuses.size(), 12u);
  std::size_t ok = 0;
  std::size_t oos = 0;
  for (const Status& s : statuses) {
    if (s.is_ok()) {
      ++ok;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kOutOfSpace);
      ++oos;
    }
  }
  EXPECT_GE(ok, 1u);
  EXPECT_GE(oos, 1u);
  EXPECT_EQ(ok + oos, 12u);

  // Acked members are readable; failed members were never indexed.
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(i));
    if (statuses[i].is_ok()) {
      ASSERT_TRUE(got.has_value())
          << "member " << i << ": " << got.status().to_string();
      EXPECT_EQ(*got, make_value(kVlen, 1)) << "member " << i;
    } else {
      EXPECT_EQ(got.code(), StatusCode::kNotFound) << "member " << i;
    }
  }
}

// ------------------------------------------------- retry under faults

TEST(BatchRetry, TransientMemberFailureReentersRetryTail) {
  // One fully-torn WRITE (ack lost -> kTimeout on that member). With the
  // retry policy on, the member backs off and re-runs as a single op;
  // the batch still reports all-ok.
  StoreConfig config = testutil::small_config();
  const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(
      "name = one-torn\nseed = 3\nfault write_torn every=1 max=1 mag=0\n");
  ASSERT_TRUE(plan.has_value()) << plan.status().message();
  config.fault_plan = *plan;

  ClientOptions options = testutil::hinted(32, 256);
  options.retry.max_attempts = 4;
  options.retry.rpc_timeout_ns = 60 * timeconst::kMicrosecond;
  options.retry.backoff_base_ns = 2 * timeconst::kMicrosecond;
  options.retry.backoff_cap_ns = 50 * timeconst::kMicrosecond;
  options.retry.jitter = 0.0;
  TestCluster tc{SystemKind::kEFactory, config, options};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 4, .key_len = 32, .value_len = 256}};

  std::vector<Status> statuses;
  bool done = false;
  tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                  std::vector<Status>* out, bool* flag) -> sim::Task<void> {
    *out = co_await c.put_batch(make_batch(w, 4, 1, 256));
    *flag = true;
  }(*tc.client, wl, &statuses, &done));
  tc.run_until_done([&] { return done; });

  ASSERT_EQ(statuses.size(), 4u);
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_TRUE(statuses[i].is_ok()) << "member " << i;
  }
  EXPECT_GE(tc.client->stats().retries, 1u);
  EXPECT_EQ(tc.client->stats().giveups, 0u);
  // Every member's final bytes are intact despite the torn first try.
  for (int k = 0; k < 4; ++k) {
    const Expected<Bytes> got = tc.get_sync(wl.key_at(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, make_value(256, 1)) << "key " << k;
  }
}

// ------------------------------------------------------- determinism

struct BatchFingerprint {
  std::uint64_t events = 0;
  std::uint64_t dispatch_hash = 0;
};

BatchFingerprint run_batched(SystemKind kind) {
  ClientOptions options = testutil::hinted(32, 256);
  options.max_inflight = 8;
  TestCluster tc{kind, testutil::small_config(), options};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 32, .key_len = 32, .value_len = 256}};

  bool done = false;
  tc.sim.spawn([](KvClient& c, const workload::Workload& w,
                  bool* flag) -> sim::Task<void> {
    for (int round = 1; round <= 3; ++round) {
      const std::vector<Status> statuses =
          co_await c.put_batch(make_batch(w, 16, round, 256));
      for (const Status& s : statuses) EXPECT_TRUE(s.is_ok());
    }
    std::vector<Bytes> keys;
    for (int k = 0; k < 16; ++k) keys.push_back(w.key_at(k));
    const std::vector<Expected<Bytes>> got =
        co_await c.get_batch(std::move(keys));
    for (const Expected<Bytes>& v : got) EXPECT_TRUE(v.has_value());
    *flag = true;
  }(*tc.client, wl, &done));
  tc.run_until_done([&] { return done; });
  tc.settle();
  return BatchFingerprint{tc.sim.events_processed(),
                          tc.sim.dispatch_hash()};
}

TEST(BatchDeterminism, RepeatedBatchedRunsAreBitIdentical) {
  for (const SystemKind kind :
       {SystemKind::kEFactory, SystemKind::kImm, SystemKind::kErda}) {
    const BatchFingerprint a = run_batched(kind);
    const BatchFingerprint b = run_batched(kind);
    EXPECT_EQ(a.events, b.events) << to_string(kind);
    EXPECT_EQ(a.dispatch_hash, b.dispatch_hash) << to_string(kind);
  }
}

}  // namespace
}  // namespace efac::stores
