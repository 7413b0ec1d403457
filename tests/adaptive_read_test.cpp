// Adaptive hybrid read (stores/adaptive.hpp + the eFactory client wiring).
//
// Pins the tracker's hysteresis, the durability-hint lease under virtual
// time, the optional-tail wire format (byte-identical when unused), the
// end-to-end hint-skip / re-arm flow against a real EFactoryStore, and
// deterministic replay with the feature on — including under a fault
// plan with the retry engine armed.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "fault/fault.hpp"
#include "metrics/json.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "stores/adaptive.hpp"
#include "stores/efactory.hpp"
#include "stores/world.hpp"
#include "stores/wire.hpp"
#include "workload/runner.hpp"

namespace efac::stores {
namespace {

// ------------------------------------------------------------ tracker unit

AdaptiveReadOptions tracker_options() {
  AdaptiveReadOptions o;
  o.enabled = true;
  o.buckets = 16;
  o.trip_threshold = 2;
  o.probe_period = 4;
  o.unstick_after = 0;  // plain trip/probe/re-arm hysteresis for these tests
  return o;
}

TEST(AdaptiveTracker, TripsAfterConsecutiveMissesThenProbesPeriodically) {
  metrics::MetricsRegistry registry;
  AdaptiveReadTracker tracker{tracker_options(), registry};
  const std::uint64_t key = 0xFEED;

  // Below the threshold the bucket stays optimistic.
  EXPECT_EQ(tracker.route(key, 0), AdaptiveRoute::kOneSided);
  tracker.note_flag_miss(key);
  EXPECT_EQ(tracker.route(key, 0), AdaptiveRoute::kOneSided);
  EXPECT_EQ(tracker.tripped_buckets(), 0u);

  // The second consecutive miss trips it.
  tracker.note_flag_miss(key);
  EXPECT_EQ(tracker.tripped_buckets(), 1u);
  EXPECT_EQ(tracker.counters().trips.value(), 1u);

  // While tripped: every probe_period-th GET re-probes, the rest go
  // RPC-first.
  int probes = 0;
  int rpc_first = 0;
  for (int i = 0; i < 8; ++i) {
    const AdaptiveRoute r = tracker.route(key, 0);
    EXPECT_NE(r, AdaptiveRoute::kOneSided);
    probes += r == AdaptiveRoute::kProbe;
    rpc_first += r == AdaptiveRoute::kRpcFirst;
  }
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(rpc_first, 6);
  EXPECT_EQ(tracker.counters().probes.value(), 2u);
  EXPECT_EQ(tracker.counters().rpc_first.value(), 6u);

  // Further misses saturate: no double-counted trips.
  tracker.note_flag_miss(key);
  EXPECT_EQ(tracker.counters().trips.value(), 1u);
}

TEST(AdaptiveTracker, OneFastSuccessReArmsATrippedBucket) {
  metrics::MetricsRegistry registry;
  AdaptiveReadTracker tracker{tracker_options(), registry};
  const std::uint64_t key = 0xBEEF;
  tracker.note_flag_miss(key);
  tracker.note_flag_miss(key);
  ASSERT_EQ(tracker.tripped_buckets(), 1u);

  tracker.note_fast_success(key);
  EXPECT_EQ(tracker.tripped_buckets(), 0u);
  EXPECT_EQ(tracker.counters().rearms.value(), 1u);
  EXPECT_EQ(tracker.route(key, 0), AdaptiveRoute::kOneSided);

  // A success on a healthy bucket is not a re-arm.
  tracker.note_fast_success(key);
  EXPECT_EQ(tracker.counters().rearms.value(), 1u);
}

TEST(AdaptiveTracker, StickyBucketStaysFlagFirstUntilAQuietStreak) {
  AdaptiveReadOptions options = tracker_options();
  options.unstick_after = 3;
  options.probe_period = 1;  // make every sticky GET a probe, deterministically
  metrics::MetricsRegistry registry;
  AdaptiveReadTracker tracker{options, registry};
  const std::uint64_t key = 0xD00D;

  // Trip the bucket, then re-arm it with one success: the miss count
  // clears but the bucket stays sticky — GETs keep the probe cadence
  // instead of returning to blind full-width reads.
  tracker.note_flag_miss(key);
  tracker.note_flag_miss(key);
  tracker.note_fast_success(key);
  EXPECT_EQ(tracker.tripped_buckets(), 0u);
  EXPECT_EQ(tracker.route(key, 0), AdaptiveRoute::kProbe);

  // A miss resets the success streak without waiting for a full re-trip.
  tracker.note_fast_success(key);  // streak: 2
  tracker.note_flag_miss(key);     // streak: 0, misses: 1 (below threshold)
  EXPECT_EQ(tracker.route(key, 0), AdaptiveRoute::kProbe);

  // Three consecutive successes un-stick it: back to the pure fast path.
  tracker.note_fast_success(key);
  tracker.note_fast_success(key);
  tracker.note_fast_success(key);
  EXPECT_EQ(tracker.route(key, 0), AdaptiveRoute::kOneSided);
}

TEST(AdaptiveTracker, HintLeaseSkipsUntilExpiryUnderVirtualTime) {
  AdaptiveReadOptions options = tracker_options();
  options.hint_margin_ns = 100;
  metrics::MetricsRegistry registry;
  AdaptiveReadTracker tracker{options, registry};
  const std::uint64_t key = 0xCAFE;

  tracker.note_hint(key, /*durable_eta=*/1000, /*now=*/0);
  EXPECT_EQ(tracker.counters().hints.value(), 1u);

  // Before eta + margin: skip straight to RPC.
  EXPECT_EQ(tracker.route(key, 500), AdaptiveRoute::kHintLease);
  EXPECT_EQ(tracker.route(key, 1099), AdaptiveRoute::kHintLease);
  EXPECT_EQ(tracker.counters().hint_skips.value(), 2u);

  // At the deadline the lease lapses and the bucket re-arms on its own.
  EXPECT_EQ(tracker.route(key, 1100), AdaptiveRoute::kOneSided);
  // Lapsed means gone, not dormant: earlier times don't revive it.
  EXPECT_EQ(tracker.route(key, 500), AdaptiveRoute::kOneSided);
}

TEST(AdaptiveTracker, HintsIgnoredWhenDisabledOrWithoutEstimate) {
  AdaptiveReadOptions options = tracker_options();
  options.use_hints = false;
  metrics::MetricsRegistry registry;
  AdaptiveReadTracker tracker{options, registry};
  tracker.note_hint(1, 1000, /*now=*/0);
  EXPECT_EQ(tracker.route(1, 0), AdaptiveRoute::kOneSided);

  AdaptiveReadOptions with_hints = tracker_options();
  metrics::MetricsRegistry registry2;
  AdaptiveReadTracker tracker2{with_hints, registry2};
  // eta == 0 means "durable at ack / no estimate": nothing to lease.
  tracker2.note_hint(1, 0, /*now=*/0);
  EXPECT_EQ(tracker2.route(1, 0), AdaptiveRoute::kOneSided);
}

// ------------------------------------------------------------- wire format

TEST(AdaptiveWire, HintTailIsOptionalAndBackwardCompatible) {
  AllocRequest req;
  req.klen = 4;
  req.vlen = 64;
  req.crc = 0xDEAD;
  req.key = Bytes{'a', 'b', 'c', 'd'};
  const Bytes plain = req.encode();
  req.want_hint = true;
  const Bytes hinted = req.encode();
  // The tail is exactly one byte, present only when requested — wire
  // sizes feed the latency model, so this is what keeps non-adaptive
  // schedules bit-identical.
  EXPECT_EQ(hinted.size(), plain.size() + 1);
  EXPECT_FALSE(AllocRequest::decode(plain).want_hint);
  EXPECT_TRUE(AllocRequest::decode(hinted).want_hint);

  AllocResponse resp;
  resp.object_off = 4096;
  resp.token = 7;
  const Bytes bare = resp.encode();
  resp.carry_hint = true;
  resp.durable_eta = 123456789;
  const Bytes carrying = resp.encode();
  EXPECT_EQ(carrying.size(), bare.size() + 8);
  EXPECT_FALSE(AllocResponse::decode(bare).carry_hint);
  const AllocResponse round = AllocResponse::decode(carrying);
  EXPECT_TRUE(round.carry_hint);
  EXPECT_EQ(round.durable_eta, 123456789);
  EXPECT_EQ(round.object_off, 4096u);
}

// -------------------------------------------------------------- end to end

TEST(AdaptiveRead, HintLeaseSkipsThenLapsesAgainstARealStore) {
  StoreConfig config;
  config.pool_bytes = 4 * sizeconst::kMiB;
  World world{SystemKind::kEFactory, config};
  sim::Simulator& sim = world.sim;
  world.start();

  ClientOptions options;
  options.size_hint = {16, 128};
  options.adaptive.enabled = true;
  // Stretch the lease well past the client's WRITE + GET issue latency so
  // the first read deterministically lands inside the doomed window.
  options.adaptive.hint_margin_ns = 200 * timeconst::kMicrosecond;
  KvClient& client = world.make_client(options);

  const Bytes key(16, 'k');
  const Bytes value(128, 'v');

  bool done = false;
  sim.spawn([](KvClient& c, Bytes k, Bytes v, bool* flag) -> sim::Task<void> {
    EXPECT_TRUE((co_await c.put(k, v)).is_ok());
    // The PUT ack carried a durability hint; this read must skip the
    // one-sided attempt and still return the value via RPC.
    const Expected<Bytes> got = co_await c.get(k);
    EXPECT_TRUE(got.has_value());
    if (got.has_value()) {
      EXPECT_EQ(*got, v);
    }
    *flag = true;
  }(client, key, value, &done));
  while (!done) sim.run_until(sim.now() + timeconst::kMillisecond);

  const metrics::MetricsRegistry& m = client.metrics();
  ASSERT_NE(m.find_counter("read.adaptive.hints"), nullptr);
  EXPECT_GE(m.find_counter("read.adaptive.hints")->value(), 1u);
  EXPECT_EQ(m.find_counter("read.adaptive.hint_skips")->value(), 1u);
  EXPECT_EQ(client.stats().gets_rpc_path, 1u);
  EXPECT_EQ(client.stats().gets_pure_rdma, 0u);

  // Let the lease lapse (and the verifier flag the object), then read
  // again: back on the fast one-sided path.
  sim.run_until(sim.now() + timeconst::kMillisecond);
  done = false;
  sim.spawn([](KvClient& c, Bytes k, Bytes v, bool* flag) -> sim::Task<void> {
    const Expected<Bytes> got = co_await c.get(k);
    EXPECT_TRUE(got.has_value());
    if (got.has_value()) {
      EXPECT_EQ(*got, v);
    }
    *flag = true;
  }(client, key, value, &done));
  while (!done) sim.run_until(sim.now() + timeconst::kMillisecond);

  EXPECT_EQ(client.stats().gets_pure_rdma, 1u);
  EXPECT_EQ(m.find_counter("read.adaptive.hint_skips")->value(), 1u);
  // The server counted the hint it piggybacked.
  EXPECT_GE(world.store().server_stats().hints_issued, 1u);
}

workload::RunOptions write_heavy_options() {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kWriteIntensive;
  options.workload.key_count = 64;
  options.workload.key_len = 16;
  options.workload.value_len = 1024;
  options.workload.seed = 0xADA;
  options.clients = 8;
  options.ops_per_client = 100;
  return options;
}

workload::RunResult run_write_heavy(const workload::RunOptions& options) {
  World world{SystemKind::kEFactory, workload::sized_store_config(options)};
  return workload::run_workload(world.sim, world.cluster, options);
}

TEST(AdaptiveRead, WriteHeavyZipfExercisesTrackerAndHints) {
  workload::RunOptions options = write_heavy_options();
  options.client.adaptive.enabled = true;
  const workload::RunResult result = run_write_heavy(options);

  const metrics::Counter* hints =
      result.metrics.find_counter("read.adaptive.hints");
  ASSERT_NE(hints, nullptr);
  EXPECT_GT(hints->value(), 0u);
  // Hot keys under a 50 %-write Zipfian mix land in the not-yet-durable
  // window; the whole point of the feature is that some of those reads
  // are routed RPC-first instead of paying the doomed one-sided probe.
  const std::uint64_t skips =
      result.metrics.find_counter("read.adaptive.hint_skips")->value() +
      result.metrics.find_counter("read.adaptive.rpc_first")->value();
  EXPECT_GT(skips, 0u);
  EXPECT_GT(result.gets, 0u);
  EXPECT_EQ(result.get_failures, 0u);
}

TEST(AdaptiveRead, DisabledRunExportsNoAdaptiveMetrics) {
  const workload::RunResult result = run_write_heavy(write_heavy_options());
  EXPECT_EQ(result.metrics.find_counter("read.adaptive.hints"), nullptr);
  const std::string json = metrics::to_json(result.metrics, "adaptive-off");
  EXPECT_EQ(json.find("read.adaptive"), std::string::npos);
}

TEST(AdaptiveRead, TrackerOnlyModeTripsWithoutHints) {
  workload::RunOptions options = write_heavy_options();
  options.client.adaptive.enabled = true;
  options.client.adaptive.use_hints = false;
  options.client.adaptive.trip_threshold = 1;
  options.client.adaptive.probe_period = 8;
  const workload::RunResult result = run_write_heavy(options);

  const metrics::Counter* trips =
      result.metrics.find_counter("read.adaptive.trips");
  ASSERT_NE(trips, nullptr);
  EXPECT_GT(trips->value(), 0u);
  EXPECT_GT(result.metrics.find_counter("read.adaptive.rpc_first")->value(),
            0u);
  EXPECT_EQ(result.metrics.find_counter("read.adaptive.hint_skips")->value(),
            0u);
  EXPECT_EQ(result.get_failures, 0u);
}

// Adaptive routing is pure client CPU: repeated seeded runs with the
// feature on must replay bit-identically, including under a fault plan
// with the retry engine armed (the tracker sees kUnavailable fallbacks
// from dropped RPCs exactly the same way every time).
TEST(AdaptiveRead, FaultPlanRunsReplayBitIdentically) {
  const auto run_once = [] {
    const Expected<fault::FaultPlan> plan = fault::FaultPlan::parse(
        "name = adaptive-chaos\nseed = 0xF2\n"
        "fault send_drop every=11 phase=2\n"
        "fault resp_delay every=9 phase=5 delay_us=40\n");
    EFAC_CHECK(plan.has_value());
    workload::RunOptions options = write_heavy_options();
    options.client.adaptive.enabled = true;
    options.client.retry.max_attempts = 4;
    options.client.retry.rpc_timeout_ns = 60 * timeconst::kMicrosecond;
    options.clients = 4;
    options.ops_per_client = 50;

    StoreConfig config = workload::sized_store_config(options);
    config.fault_plan = *plan;
    World world{SystemKind::kEFactory, config};
    workload::RunResult result =
        workload::run_workload(world.sim, world.cluster, options);

    struct Fingerprint {
      std::uint64_t events;
      std::uint64_t hash;
      std::string metrics_json;
      bool operator==(const Fingerprint&) const = default;
    };
    return Fingerprint{world.sim.events_processed(), world.sim.dispatch_hash(),
                       metrics::to_json(result.metrics, "adaptive-fault")};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace efac::stores
