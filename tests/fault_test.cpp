// Fault-injection engine tests: plan parse/encode, deterministic firing,
// the empty-plan pass-through guarantee, seeded replay (same plan + seed
// -> identical schedules, fault counters and metrics), and the §3.3
// timeout-invalidation boundary (an object completing *exactly* at
// write_time + object_timeout_ns is durable, not invalidated).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "kv/hash_dir.hpp"
#include "kv/object.hpp"
#include "metrics/json.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "store_test_util.hpp"
#include "stores/efactory.hpp"
#include "stores/factory.hpp"
#include "stores/world.hpp"
#include "workload/runner.hpp"

namespace efac {
namespace {

// ------------------------------------------------------------- plan text

TEST(FaultPlan, ParseEncodeRoundTrips) {
  constexpr std::string_view kText = R"(# demo scenario
name = demo
seed = 0xF00
crash_at_us = 350
restart = true
compromises_durability = true
fault write_torn every=5 phase=1 mag=0.25
fault resp_drop p=0.05 skip=2 max=10
fault send_delay every=7 delay_us=40
)";
  const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(kText);
  ASSERT_TRUE(plan.has_value()) << plan.status().message();
  EXPECT_EQ(plan->name, "demo");
  EXPECT_EQ(plan->seed, 0xF00u);
  EXPECT_EQ(plan->crash_at_ns, 350 * timeconst::kMicrosecond);
  EXPECT_TRUE(plan->restart);
  EXPECT_TRUE(plan->compromises_durability);
  EXPECT_FALSE(plan->empty());

  const fault::FaultSpec& torn = plan->at(fault::Site::kWriteTorn);
  EXPECT_EQ(torn.period, 5u);
  EXPECT_EQ(torn.phase, 1u);
  EXPECT_DOUBLE_EQ(torn.magnitude, 0.25);
  const fault::FaultSpec& resp = plan->at(fault::Site::kRespDrop);
  EXPECT_DOUBLE_EQ(resp.probability, 0.05);
  EXPECT_EQ(resp.skip, 2u);
  EXPECT_EQ(resp.max_fires, 10u);
  EXPECT_EQ(plan->at(fault::Site::kSendDelay).delay_ns,
            40 * timeconst::kMicrosecond);

  // encode() -> parse() -> encode() must be a fixpoint, so a plan printed
  // into a CI artifact replays exactly.
  const std::string once = plan->encode();
  const Expected<fault::FaultPlan> reparsed = fault::FaultPlan::parse(once);
  ASSERT_TRUE(reparsed.has_value()) << reparsed.status().message();
  EXPECT_EQ(reparsed->encode(), once);
}

TEST(FaultPlan, RejectsUnknownSitesAndMalformedLines) {
  EXPECT_FALSE(fault::FaultPlan::parse("fault warp_core p=1").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("fault").has_value());
  EXPECT_FALSE(fault::FaultPlan::parse("utter nonsense").has_value());
}

TEST(FaultPlan, InactiveSpecsStillCountAsEmpty) {
  fault::FaultPlan plan;
  plan.name = "named-but-inert";
  plan.seed = 123;
  plan.at(fault::Site::kWriteTorn).magnitude = 0.9;  // no period, no p
  EXPECT_TRUE(plan.empty());
  plan.at(fault::Site::kWriteTorn).period = 2;
  EXPECT_FALSE(plan.empty());
}

// -------------------------------------------------------------- injector

TEST(Injector, PeriodicRuleFiresDeterministically) {
  fault::FaultPlan plan;
  plan.name = "periodic";
  fault::FaultSpec& spec = plan.at(fault::Site::kWriteTorn);
  spec.period = 3;
  spec.phase = 1;
  spec.max_fires = 2;

  metrics::MetricsRegistry registry;
  fault::Injector injector;
  injector.configure(plan, registry);
  ASSERT_TRUE(injector.enabled());

  std::vector<bool> pattern;
  for (int i = 0; i < 10; ++i) {
    pattern.push_back(injector.fire(fault::Site::kWriteTorn));
  }
  // Occurrences 1 and 4 fire (i % 3 == 1); max_fires = 2 stops the rest.
  EXPECT_EQ(pattern, (std::vector<bool>{false, true, false, false, true,
                                        false, false, false, false, false}));
  EXPECT_EQ(injector.occurrences(fault::Site::kWriteTorn), 10u);
  EXPECT_EQ(injector.fires(fault::Site::kWriteTorn), 2u);
  const metrics::Counter* counter =
      registry.find_counter("fault.injected.write_torn");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 2u);
}

TEST(Injector, ProbabilisticRuleReplaysBitIdentically) {
  fault::FaultPlan plan;
  plan.name = "bernoulli";
  plan.seed = 0xABCD;
  plan.at(fault::Site::kRespDrop).probability = 0.3;

  const auto pattern = [&plan] {
    metrics::MetricsRegistry registry;
    fault::Injector injector;
    injector.configure(plan, registry);
    std::vector<bool> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(injector.fire(fault::Site::kRespDrop));
    }
    return out;
  };
  const std::vector<bool> a = pattern();
  EXPECT_EQ(a, pattern());
  const auto fired = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, a.size());
}

// ------------------------------------------------- empty-plan pass-through

struct RunFingerprint {
  std::uint64_t events = 0;
  std::uint64_t dispatch_hash = 0;
  std::string metrics_json;
};

RunFingerprint run_efactory_workload(const fault::FaultPlan& plan) {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kUpdateOnly;
  options.workload.key_count = 32;
  options.workload.key_len = 16;
  options.workload.value_len = 128;
  options.workload.seed = 0xD37;
  options.clients = 2;
  options.ops_per_client = 30;

  stores::StoreConfig config = workload::sized_store_config(options);
  config.fault_plan = plan;
  stores::World world{stores::SystemKind::kEFactory, config};
  workload::RunResult result =
      workload::run_workload(world.sim, world.cluster, options);
  RunFingerprint fp;
  fp.events = world.sim.events_processed();
  fp.dispatch_hash = world.sim.dispatch_hash();
  fp.metrics_json = metrics::to_json(result.metrics, "fault_test");
  return fp;
}

TEST(FaultPassThrough, EmptyPlanLeavesScheduleBitIdentical) {
  // A named-but-inert plan must cost nothing: same event count, same
  // dispatch order, byte-identical metrics as the default configuration.
  fault::FaultPlan inert;
  inert.name = "inert";
  inert.seed = 0x1234;  // a seed alone must not perturb anything
  ASSERT_TRUE(inert.empty());

  const RunFingerprint base = run_efactory_workload(fault::FaultPlan{});
  const RunFingerprint with_inert = run_efactory_workload(inert);
  EXPECT_EQ(base.events, with_inert.events);
  EXPECT_EQ(base.dispatch_hash, with_inert.dispatch_hash);
  EXPECT_EQ(base.metrics_json, with_inert.metrics_json);
}

// ------------------------------------------------------- seeded replay

constexpr std::string_view kChaosPlanText = R"(
name = chaos
seed = 0xF1
fault send_drop every=11 phase=2
fault resp_drop every=13 phase=4
fault resp_delay every=9 phase=5 delay_us=40
)";

struct ChaosRun {
  std::uint64_t dispatch_hash = 0;
  std::string client_json;
  std::string store_json;
  std::vector<std::uint64_t> fires;
  std::uint64_t retries = 0;
  std::uint64_t oks = 0;
};

ChaosRun run_chaos_once() {
  const Expected<fault::FaultPlan> plan =
      fault::FaultPlan::parse(kChaosPlanText);
  EFAC_CHECK(plan.has_value());
  stores::StoreConfig config = testutil::small_config();
  config.fault_plan = *plan;

  testutil::TestCluster tc(stores::SystemKind::kEFactory, config);
  stores::ClientOptions options;
  options.retry.max_attempts = 4;
  options.retry.rpc_timeout_ns = 60 * timeconst::kMicrosecond;
  options.retry.backoff_base_ns = 2 * timeconst::kMicrosecond;
  options.retry.backoff_cap_ns = 50 * timeconst::kMicrosecond;
  options.retry.jitter = 0.2;
  options.size_hint = {16, 128};
  stores::KvClient& client = tc.make_client(options);

  ChaosRun run;
  for (int version = 1; version <= 20; ++version) {
    for (int k = 0; k < 4; ++k) {
      Bytes key(16, static_cast<std::uint8_t>('a' + k));
      Bytes value = testutil::make_value(128, static_cast<std::uint8_t>(version));
      if (tc.put_sync(client, key, std::move(value)).is_ok()) ++run.oks;
      static_cast<void>(tc.get_sync(client, std::move(key)));
    }
  }
  tc.settle(100 * timeconst::kMicrosecond);

  run.dispatch_hash = tc.sim.dispatch_hash();
  run.client_json = metrics::to_json(client.metrics(), "fault_test");
  run.store_json = metrics::to_json(tc.store().metrics(), "fault_test");
  for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
    run.fires.push_back(
        tc.store().injector().fires(static_cast<fault::Site>(s)));
  }
  run.retries = client.stats().retries;
  return run;
}

TEST(FaultReplay, SamePlanAndSeedYieldIdenticalRuns) {
  const ChaosRun a = run_chaos_once();
  const ChaosRun b = run_chaos_once();
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  EXPECT_EQ(a.client_json, b.client_json);
  EXPECT_EQ(a.store_json, b.store_json);
  EXPECT_EQ(a.fires, b.fires);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.oks, b.oks);

  // The run must actually have injected something and driven retries, or
  // the replay assertion is vacuous.
  std::uint64_t total_fires = 0;
  for (const std::uint64_t f : a.fires) total_fires += f;
  EXPECT_GT(total_fires, 0u);
  EXPECT_GT(a.retries, 0u);
  EXPECT_GT(a.oks, 0u);
}

// ------------------------------------- §3.3 timeout invalidation boundary

TEST(TimeoutBoundary, ExactDeadlineIsNotTimedOut) {
  constexpr SimTime wt = 1000;
  constexpr SimDuration timeout = 500;
  static_assert(!stores::EFactoryStore::timed_out(wt, wt, timeout));
  static_assert(!stores::EFactoryStore::timed_out(wt + timeout, wt, timeout));
  static_assert(stores::EFactoryStore::timed_out(wt + timeout + 1, wt, timeout));
  EXPECT_FALSE(stores::EFactoryStore::timed_out(wt + timeout, wt, timeout));
  EXPECT_TRUE(stores::EFactoryStore::timed_out(wt + timeout + 1, wt, timeout));
}

TEST(TimeoutBoundary, ObjectCompletingExactlyAtDeadlineStaysDurable) {
  // Regression for the >= boundary bug: a write whose payload lands at
  // EXACTLY write_time + object_timeout_ns is still verifiable and must
  // not be invalidated by the background verifier.
  stores::StoreConfig config = testutil::small_config();
  config.object_timeout_ns = 50 * timeconst::kMicrosecond;
  const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(
      "name = one-torn\nseed = 1\nfault write_torn every=1 max=1 mag=0\n");
  ASSERT_TRUE(plan.has_value()) << plan.status().message();
  config.fault_plan = *plan;

  const Bytes key(16, 'x');
  const Bytes value = testutil::make_value(128, 7);
  testutil::TestCluster tc(stores::SystemKind::kEFactory,
                           config, testutil::hinted(key.size(), value.size()));

  // The one-shot fully-torn WRITE (mag=0): nothing lands, the ack is
  // lost, and the single-attempt client reports the put as failed. Driven
  // in 1 µs slices (not put_sync's 1 ms ones) so the clock stays well
  // short of the invalidation deadline when the put resolves.
  std::optional<Status> put_result;
  tc.sim.spawn([](stores::KvClient& c, Bytes k, Bytes v,
                  std::optional<Status>* out) -> sim::Task<void> {
    *out = co_await c.put(std::move(k), std::move(v));
  }(*tc.client, key, value, &put_result));
  while (!put_result.has_value()) {
    tc.sim.run_until(tc.sim.now() + timeconst::kMicrosecond);
  }
  EXPECT_FALSE(put_result->is_ok());

  auto& store = static_cast<stores::EFactoryStore&>(tc.store());
  std::size_t probes = 0;
  const Expected<std::size_t> slot =
      store.dir().find(kv::hash_key(key), &probes);
  ASSERT_TRUE(slot.has_value());
  const MemOffset off = store.dir().read(*slot).current();
  ASSERT_NE(off, 0u);
  kv::ObjectRef ref(store.arena(), off);
  const kv::ObjectMeta meta = ref.read_header();
  const SimTime deadline = meta.write_time + config.object_timeout_ns;
  ASSERT_GT(deadline, tc.sim.now());
  EXPECT_FALSE(ref.verify_crc());  // torn: the value bytes never landed

  // Complete the payload at EXACTLY the deadline instant.
  tc.sim.call_at(deadline, [&store, off, &key, &value] {
    store.arena().store(off + kv::ObjectLayout::kHeaderSize + key.size(),
                        value);
  });
  tc.sim.run_until(deadline + 100 * timeconst::kMicrosecond);

  EXPECT_EQ(store.server_stats().bg_timeouts, 0u);
  EXPECT_GT(store.server_stats().bg_verified, 0u);
  EXPECT_TRUE(ref.read_header().valid);
  EXPECT_TRUE(ref.is_durable(key.size(), value.size()));
  const Expected<Bytes> got = tc.get_sync(key);
  ASSERT_TRUE(got.has_value()) << got.status().message();
  EXPECT_EQ(*got, value);
}

TEST(TimeoutBoundary, AbandonedTornWriteIsInvalidatedAfterTimeout) {
  // The paper's §3.3 scenario: the writer dies mid-WRITE and nobody
  // retries. The background verifier invalidates the torn version after
  // the timeout, and subsequent hybrid reads take the RPC fallback.
  stores::StoreConfig config = testutil::small_config();
  config.object_timeout_ns = 40 * timeconst::kMicrosecond;
  const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(
      "name = torn\nseed = 2\nfault write_torn every=2 phase=0 mag=0.5\n");
  ASSERT_TRUE(plan.has_value());
  config.fault_plan = *plan;

  testutil::TestCluster tc(stores::SystemKind::kEFactory,
                           config, testutil::hinted(16, 128));
  constexpr int kKeys = 6;
  const auto key_of = [](int k) {
    return Bytes(16, static_cast<std::uint8_t>('a' + k));
  };
  int put_failures = 0;
  for (int k = 0; k < kKeys; ++k) {
    const Bytes value = testutil::make_value(128, static_cast<std::uint8_t>(k));
    if (!tc.put_sync(key_of(k), value).is_ok()) ++put_failures;
  }
  EXPECT_GT(put_failures, 0);  // every other WRITE was torn
  tc.settle(300 * timeconst::kMicrosecond);

  EXPECT_GT(tc.store().server_stats().bg_timeouts, 0u);
  const std::uint64_t injected =
      tc.store().injector().fires(fault::Site::kWriteTorn);
  EXPECT_EQ(injected, static_cast<std::uint64_t>(put_failures));
  const metrics::Counter* counter =
      tc.store().metrics().find_counter("fault.injected.write_torn");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), injected);

  // Every key is still readable-or-absent, never garbage; torn keys force
  // the hybrid read onto the RPC fallback path.
  for (int k = 0; k < kKeys; ++k) {
    const Expected<Bytes> got = tc.get_sync(key_of(k));
    if (got.has_value()) {
      EXPECT_EQ(*got, testutil::make_value(128, static_cast<std::uint8_t>(k)));
    } else {
      EXPECT_EQ(got.code(), StatusCode::kNotFound);
    }
  }
  EXPECT_GT(tc.client->stats().gets_rpc_path, 0u);
}

}  // namespace
}  // namespace efac
