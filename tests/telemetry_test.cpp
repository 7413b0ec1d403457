// Virtual-time telemetry: rule parsing, sampling semantics (deltas,
// backfill, ring drops), edge-triggered SLO violations, the
// efac.telemetry.v1 export round-trip (golden pin + validator rejects),
// and end-to-end bit-determinism of sampled series over a real workload.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "metrics/metrics.hpp"
#include "metrics/telemetry.hpp"
#include "sim/simulator.hpp"
#include "stores/world.hpp"
#include "workload/runner.hpp"

namespace efac::metrics {
namespace {

using stores::SystemKind;

// ------------------------------------------------------------ rule parsing

TEST(SloRule, ParsesEveryFunction) {
  const Expected<SloRule> rate = SloRule::parse("rate(client.retries) > 1e6");
  ASSERT_TRUE(rate.has_value());
  EXPECT_EQ(rate->fn, SloRule::Fn::kRate);
  EXPECT_EQ(rate->series, "client.retries");
  EXPECT_TRUE(rate->greater);
  EXPECT_DOUBLE_EQ(rate->threshold, 1e6);
  EXPECT_EQ(rate->window, 1u);

  const Expected<SloRule> gauge =
      SloRule::parse("gauge(server.verify_queue_depth) < 128 over 8");
  ASSERT_TRUE(gauge.has_value());
  EXPECT_EQ(gauge->fn, SloRule::Fn::kGauge);
  EXPECT_FALSE(gauge->greater);
  EXPECT_EQ(gauge->window, 8u);

  const Expected<SloRule> slope =
      SloRule::parse("slope(server.cleaner_backlog) > 4 over 16");
  ASSERT_TRUE(slope.has_value());
  EXPECT_EQ(slope->fn, SloRule::Fn::kSlope);
  EXPECT_EQ(slope->window, 16u);

  // Slope's window defaults to 2 (it needs two endpoints).
  const Expected<SloRule> slope_default = SloRule::parse("slope(x) > 0");
  ASSERT_TRUE(slope_default.has_value());
  EXPECT_EQ(slope_default->window, 2u);

  const Expected<SloRule> ratio = SloRule::parse(
      "ratio(read.adaptive.hedges_wasted, read.adaptive.hedges) > 0.5 "
      "over 32");
  ASSERT_TRUE(ratio.has_value());
  EXPECT_EQ(ratio->fn, SloRule::Fn::kRatio);
  EXPECT_EQ(ratio->series, "read.adaptive.hedges_wasted");
  EXPECT_EQ(ratio->denominator, "read.adaptive.hedges");
}

TEST(SloRule, RejectsMalformedRules) {
  for (const char* bad :
       {"", "bogus(x) > 1", "rate(x > 1", "rate() > 1", "rate(x) >= 1",
        "rate(x) > ", "rate(x) > 1 over", "rate(x) > 1 over 0",
        "rate(x) > 1 over 2 junk", "rate(x, y) > 1", "ratio(x) > 1",
        "slope(x) > 1 over 1", "rate(x) > 1 trailing"}) {
    EXPECT_FALSE(SloRule::parse(bad).has_value()) << bad;
  }
}

// ------------------------------------------------------- sampling semantics

TEST(TelemetrySampler, CounterDeltasAndGaugeProbes) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  options.period_ns = 1000;
  TelemetrySampler sampler{sim, registry, options};

  Counter& reqs = registry.counter("server.requests");
  sampler.add_counter_source(&registry, "server.requests", reqs);
  double depth = 0.0;
  sampler.add_gauge_probe(&registry, "server.depth",
                          [&depth] { return depth; });

  reqs += 5;
  depth = 3.0;
  sampler.sample_now();
  reqs += 2;
  depth = 7.0;
  sampler.sample_now();

  const TelemetrySnapshot snap = sampler.snapshot("t");
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].name, "server.requests");
  EXPECT_EQ(snap.series[0].kind, SeriesKind::kRate);
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{5.0, 2.0}));
  EXPECT_EQ(snap.series[1].name, "server.depth");
  EXPECT_EQ(snap.series[1].kind, SeriesKind::kGauge);
  EXPECT_EQ(snap.series[1].points, (std::vector<double>{3.0, 7.0}));
  // The sampler's own accounting counter advanced with the ticks.
  EXPECT_EQ(registry.counter("telemetry.samples").value(), 2u);
}

TEST(TelemetrySampler, RegistryResetRestartsDeltaBaseline) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  TelemetrySampler sampler{sim, registry, options};

  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);
  c += 5;
  sampler.sample_now();
  registry.reset();  // rewinds the cell under the sampler
  c += 2;
  sampler.sample_now();

  const TelemetrySnapshot snap = sampler.snapshot();
  // 2, not (2 - 5) wrapped around to ~2^64.
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{5.0, 2.0}));
}

TEST(TelemetrySampler, LateSeriesBackfillsZeros) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  TelemetrySampler sampler{sim, registry, options};

  Counter& a = registry.counter("a");
  sampler.add_counter_source(&registry, "a", a);
  sampler.sample_now();
  sampler.sample_now();
  sampler.sample_now();

  // A client created mid-run registers a new series: it must come up
  // tick-aligned with the existing ones.
  double g = 9.0;
  sampler.add_gauge_probe(&registry, "late", [&g] { return g; });
  sampler.sample_now();

  const TelemetrySnapshot snap = sampler.snapshot();
  ASSERT_EQ(snap.series.size(), 2u);
  EXPECT_EQ(snap.series[0].points.size(), 4u);
  EXPECT_EQ(snap.series[1].points, (std::vector<double>{0.0, 0.0, 0.0, 9.0}));
}

TEST(TelemetrySampler, RingDropsOldestAndAccountsForThem) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  options.period_ns = 100;
  options.capacity = 4;
  TelemetrySampler sampler{sim, registry, options};

  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);
  for (int i = 1; i <= 10; ++i) {
    c += static_cast<std::uint64_t>(i);
    sampler.sample_now();
  }

  EXPECT_EQ(sampler.samples_taken(), 10u);
  EXPECT_EQ(sampler.dropped(), 6u);
  const TelemetrySnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.samples, 10u);
  EXPECT_EQ(snap.dropped, 6u);
  // Only the newest `capacity` deltas survive, oldest evicted first.
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{7.0, 8.0, 9.0, 10.0}));
  // start_ns shifts past the evicted ticks (all taken at t=0 here, so it
  // is the drop count times the period).
  EXPECT_EQ(snap.start_ns, 6u * 100u);
}

TEST(TelemetrySampler, DropSourcesStopsContributions) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  TelemetrySampler sampler{sim, registry, options};

  Counter& c = registry.counter("c");
  const int owner_a = 0;
  const int owner_b = 0;
  sampler.add_counter_source(&owner_a, "c", c);
  sampler.add_gauge_probe(&owner_b, "g", [] { return 1.0; });
  c += 3;
  sampler.sample_now();
  sampler.drop_sources(&owner_a);
  c += 3;
  sampler.sample_now();

  const TelemetrySnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.series[0].points, (std::vector<double>{3.0, 0.0}));
  EXPECT_EQ(snap.series[1].points, (std::vector<double>{1.0, 1.0}));
}

TEST(TelemetrySampler, PeriodicEventSamplesOnTheSimClock) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  options.period_ns = 1000;
  TelemetrySampler sampler{sim, registry, options};
  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);

  sampler.start();
  sim.run_until(4500);
  EXPECT_EQ(sampler.samples_taken(), 4u);

  // stop() disarms: the queued tick becomes a no-op.
  sampler.stop();
  sim.run_until(10'000);
  EXPECT_EQ(sampler.samples_taken(), 4u);
}

// ---------------------------------------------------------------- watchdog

TEST(TelemetrySampler, SloViolationsAreEdgeTriggered) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  options.period_ns = 1000;
  options.slo_rules = {"rate(c) > 0"};
  TelemetrySampler sampler{sim, registry, options};
  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);

  std::vector<std::size_t> hook_rules;
  sampler.set_violation_hook(
      [&hook_rules](const SloViolation&, std::size_t rule_index) {
        hook_rules.push_back(rule_index);
      });

  c += 1;
  sampler.sample_now();  // trips: one violation
  c += 1;
  sampler.sample_now();  // still tripped: edge already reported
  sampler.sample_now();  // delta 0: clears, re-arms
  c += 1;
  sampler.sample_now();  // trips again: second violation

  ASSERT_EQ(sampler.violations().size(), 2u);
  const SloViolation& v = sampler.violations().front();
  EXPECT_EQ(v.rule, "rate(c) > 0");
  EXPECT_DOUBLE_EQ(v.threshold, 0.0);
  // One delta per 1000ns tick = 1e6 per second.
  EXPECT_DOUBLE_EQ(v.value, 1e6);
  EXPECT_EQ(registry.counter("telemetry.slo_violations").value(), 2u);
  EXPECT_EQ(hook_rules, (std::vector<std::size_t>{0, 0}));
}

TEST(TelemetrySampler, RatioRuleSkipsZeroDenominator) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  options.slo_rules = {"ratio(a, b) > 0.5"};
  TelemetrySampler sampler{sim, registry, options};
  Counter& a = registry.counter("a");
  Counter& b = registry.counter("b");
  sampler.add_counter_source(&registry, "a", a);
  sampler.add_counter_source(&registry, "b", b);

  a += 10;
  sampler.sample_now();  // denominator 0: rule skipped, no violation
  EXPECT_TRUE(sampler.violations().empty());

  a += 10;
  b += 10;
  sampler.sample_now();  // 10/10 = 1.0 > 0.5: trips
  ASSERT_EQ(sampler.violations().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.violations().front().value, 1.0);
}

TEST(TelemetrySampler, RulesResolveAgainstSeriesPrefix) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  options.series_prefix = "s3/";
  options.slo_rules = {"rate(c) > 0"};
  TelemetrySampler sampler{sim, registry, options};
  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);

  c += 1;
  sampler.sample_now();
  // The unprefixed rule text matched the "s3/c" series.
  EXPECT_EQ(sampler.violations().size(), 1u);
  EXPECT_EQ(sampler.snapshot().series[0].name, "s3/c");
}

// ------------------------------------------------------------------ export

/// Deterministic snapshot fixture used by the golden pin and round-trip.
std::vector<TelemetrySnapshot> golden_snapshots() {
  TelemetrySnapshot snap;
  snap.label = "run/update-only/eFactory/1KB/";
  snap.period_ns = 2000;
  snap.start_ns = 4000;
  snap.samples = 5;
  snap.dropped = 2;
  snap.series.push_back(TelemetrySnapshot::Series{
      "server.requests", SeriesKind::kRate, {3.0, 1.0, 0.5}});
  snap.series.push_back(TelemetrySnapshot::Series{
      "client.inflight", SeriesKind::kGauge, {2.0, 2.0, 1.0}});
  snap.violations.push_back(
      SloViolation{"rate(server.requests) > 1e6", 6000, 1.5e6, 1e6});
  snap.violations_dropped = 1;
  return {snap};
}

constexpr std::string_view kGoldenDoc = R"({
  "schema": "efac.telemetry.v1",
  "figure": "fig2",
  "snapshots": [
    {
      "label": "run/update-only/eFactory/1KB/",
      "period_ns": 2000,
      "start_ns": 4000,
      "samples": 5,
      "dropped": 2,
      "series": {
        "server.requests": {"kind": "rate", "points": [3, 1, 0.5]},
        "client.inflight": {"kind": "gauge", "points": [2, 2, 1]}
      },
      "violations": [
        {"rule": "rate(server.requests) > 1e6", "t_ns": 6000, "value": 1500000, "threshold": 1000000}
      ],
      "violations_dropped": 1
    }
  ]
}
)";

TEST(TelemetryJson, GoldenDocumentPinsTheWriter) {
  EXPECT_EQ(to_telemetry_json(golden_snapshots(), "fig2"), kGoldenDoc);
}

TEST(TelemetryJson, RoundTripsThroughTheParser) {
  const Expected<std::vector<TelemetrySnapshot>> parsed =
      parse_telemetry_json(kGoldenDoc);
  ASSERT_TRUE(parsed.has_value()) << parsed.status().to_string();
  EXPECT_EQ(*parsed, golden_snapshots());
}

TEST(TelemetryJson, SamplerSnapshotExportValidates) {
  sim::Simulator sim;
  MetricsRegistry registry;
  TelemetryOptions options;
  options.enabled = true;
  options.slo_rules = {"rate(c) > 0"};
  TelemetrySampler sampler{sim, registry, options};
  Counter& c = registry.counter("c");
  sampler.add_counter_source(&registry, "c", c);
  c += 1;
  sampler.sample_now();
  sampler.sample_now();

  const std::string doc =
      to_telemetry_json({sampler.snapshot("label")}, "test");
  EXPECT_TRUE(validate_telemetry_json(doc).is_ok());
  const Expected<std::vector<TelemetrySnapshot>> parsed =
      parse_telemetry_json(doc);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ(parsed->front(), sampler.snapshot("label"));
}

TEST(TelemetryJson, RejectsBadDocuments) {
  // Wrong schema.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.bench.v1", "figure": "f",
                       "snapshots": []})")
                   .is_ok());
  // Missing snapshots.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f"})")
                   .is_ok());
  // Empty figure.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "",
                       "snapshots": []})")
                   .is_ok());
  // Snapshot missing required fields.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x"}]})")
                   .is_ok());
  // dropped > samples.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x", "period_ns": 1,
                         "start_ns": 0, "samples": 1, "dropped": 2,
                         "series": {}, "violations": [],
                         "violations_dropped": 0}]})")
                   .is_ok());
  // More points than retained samples.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x", "period_ns": 1,
                         "start_ns": 0, "samples": 2, "dropped": 1,
                         "series": {"s": {"kind": "rate",
                                          "points": [1, 2]}},
                         "violations": [], "violations_dropped": 0}]})")
                   .is_ok());
  // Unknown series kind.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": [{"label": "x", "period_ns": 1,
                         "start_ns": 0, "samples": 1, "dropped": 0,
                         "series": {"s": {"kind": "mystery",
                                          "points": []}},
                         "violations": [], "violations_dropped": 0}]})")
                   .is_ok());
  // Trailing garbage.
  EXPECT_FALSE(validate_telemetry_json(
                   R"({"schema": "efac.telemetry.v1", "figure": "f",
                       "snapshots": []} extra)")
                   .is_ok());
  // The golden document itself is accepted.
  EXPECT_TRUE(validate_telemetry_json(kGoldenDoc).is_ok());
}

// -------------------------------------------------------------- end to end

workload::RunOptions e2e_options() {
  workload::RunOptions options;
  options.workload.mix = workload::Mix::kWriteIntensive;
  options.workload.key_count = 128;
  options.workload.key_len = 16;
  options.workload.value_len = 128;
  options.workload.seed = 0x7E1E;
  options.clients = 4;
  options.ops_per_client = 200;
  options.telemetry.enabled = true;
  options.telemetry.period_ns = 2 * timeconst::kMicrosecond;
  options.telemetry.slo_rules = {"gauge(server.verify_queue_depth) < -1"};
  return options;
}

TelemetrySnapshot e2e_snapshot() {
  const workload::RunOptions options = e2e_options();
  stores::World world{SystemKind::kEFactory,
                      workload::sized_store_config(options)};
  workload::run_workload(world.sim, world.cluster, options);
  TelemetrySampler* sampler = world.store().telemetry();
  EXPECT_NE(sampler, nullptr);
  return sampler->snapshot("e2e");
}

TEST(TelemetryEndToEnd, DisabledByDefault) {
  stores::World world{SystemKind::kEFactory, stores::StoreConfig{}};
  EXPECT_EQ(world.store().telemetry(), nullptr);
  // Disabled = no sampler accounting counters either.
  EXPECT_EQ(world.store().metrics().find_counter("telemetry.samples"),
            nullptr);
}

TEST(TelemetryEndToEnd, SampledSeriesAreBitDeterministic) {
  const TelemetrySnapshot first = e2e_snapshot();
  const TelemetrySnapshot second = e2e_snapshot();
  EXPECT_EQ(first, second);

  EXPECT_GT(first.samples, 0u);
  ASSERT_FALSE(first.series.empty());
  // The workload actually moved the needle: the server request-rate
  // series saw traffic, and the eFactory queue-depth gauge exists.
  double requests = 0.0;
  bool saw_queue_depth = false;
  for (const TelemetrySnapshot::Series& s : first.series) {
    if (s.name == "server.requests") {
      for (const double p : s.points) requests += p;
    }
    if (s.name == "server.verify_queue_depth") saw_queue_depth = true;
  }
  EXPECT_GT(requests, 0.0);
  EXPECT_TRUE(saw_queue_depth);
  // An impossible rule (a size gauge below -1) never trips.
  EXPECT_TRUE(first.violations.empty());
}

}  // namespace
}  // namespace efac::metrics
