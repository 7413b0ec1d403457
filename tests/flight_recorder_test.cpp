// Flight-recorder coverage: recording is off by default and schedule-
// neutral when on; a traced run is bit-deterministic under a fixed seed;
// the Chrome export passes (and bad documents fail) the golden-schema
// validator; the binary dump round-trips; the ring drops oldest-first.
#include <gtest/gtest.h>

#include "stores/efactory.hpp"
#include "store_test_util.hpp"
#include "trace/chrome.hpp"
#include "trace/event_log.hpp"

namespace efac::trace {
namespace {

using stores::SystemKind;
using testutil::TestCluster;

/// One deterministic traced workload: N puts, settle (so the verifier
/// runs), N gets. Returns the snapshot plus the scheduler's witnesses.
struct TracedRun {
  EventLog::Snapshot snapshot;
  std::uint64_t dispatch_hash = 0;
  std::uint64_t events_processed = 0;
  SimTime end_time = 0;
};

TracedRun run_traced(SystemKind kind, bool trace_enabled) {
  stores::StoreConfig config = testutil::small_config();
  config.trace.enabled = trace_enabled;
  TestCluster tc{kind, config, testutil::hinted(32, 256)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 8, .key_len = 32, .value_len = 256}};
  for (int k = 0; k < 8; ++k) {
    EXPECT_TRUE(tc.put_sync(wl.key_at(k), wl.value_for(k, 1)).is_ok());
  }
  tc.settle();
  for (int k = 0; k < 8; ++k) {
    EXPECT_TRUE(tc.get_sync(wl.key_at(k)).has_value());
  }
  TracedRun run;
  if (EventLog* log = tc.store().trace_log(); log != nullptr) {
    run.snapshot = log->snapshot("test");
  }
  run.dispatch_hash = tc.sim.dispatch_hash();
  run.events_processed = tc.sim.events_processed();
  run.end_time = tc.sim.now();
  return run;
}

bool has_event(const EventLog::Snapshot& snap, EventType type) {
  for (const Event& e : snap.events) {
    if (e.type == static_cast<std::uint8_t>(type)) return true;
  }
  return false;
}

TEST(FlightRecorder, OffByDefault) {
  TestCluster tc{SystemKind::kEFactory};
  EXPECT_EQ(tc.store().trace_log(), nullptr);
}

TEST(FlightRecorder, RecordsOpLifecycleAndActorTracks) {
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  const EventLog::Snapshot& snap = run.snapshot;

  // Actor tracks registered in construction order: server and fault
  // injector from StoreBase, eFactory's verifier and cleaner, then the
  // client attached by Cluster::make_client.
  ASSERT_GE(snap.tracks.size(), 5u);
  EXPECT_EQ(snap.tracks[0], "server");
  EXPECT_EQ(snap.tracks[1], "faults");
  EXPECT_EQ(snap.tracks[2], "verifier");
  EXPECT_EQ(snap.tracks[3], "cleaner");
  EXPECT_EQ(snap.tracks[4].substr(0, 7), "client-");

  for (const EventType type :
       {EventType::kOpBegin, EventType::kOpEnd, EventType::kRpcIssue,
        EventType::kRpcDeliver, EventType::kQpVerb, EventType::kObjBind,
        EventType::kVerifyScan, EventType::kVerifyFlush,
        EventType::kFlagSet, EventType::kGetPath}) {
    EXPECT_TRUE(has_event(snap, type))
        << "missing " << kEventNames[static_cast<std::size_t>(type)];
  }

  // Every lifecycle event carries a nonzero causal op id, and the op ends
  // report success for this clean workload.
  for (const Event& e : snap.events) {
    const auto type = static_cast<EventType>(e.type);
    if (type == EventType::kOpBegin || type == EventType::kOpEnd) {
      EXPECT_NE(e.op, 0u);
    }
    if (type == EventType::kOpEnd) {
      EXPECT_EQ(e.a, static_cast<std::uint64_t>(StatusCode::kOk));
    }
  }
}

TEST(FlightRecorder, RecordingDoesNotPerturbTheSchedule) {
  // The recorder only reads sim.now() — with it on or off, the same
  // seeded workload must dispatch the same events in the same order.
  const TracedRun off = run_traced(SystemKind::kEFactory, false);
  const TracedRun on = run_traced(SystemKind::kEFactory, true);
  EXPECT_EQ(off.dispatch_hash, on.dispatch_hash);
  EXPECT_EQ(off.events_processed, on.events_processed);
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_TRUE(off.snapshot.events.empty());
  EXPECT_FALSE(on.snapshot.events.empty());
}

TEST(FlightRecorder, TracedRunsAreBitDeterministic) {
  const TracedRun a = run_traced(SystemKind::kEFactory, true);
  const TracedRun b = run_traced(SystemKind::kEFactory, true);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  ASSERT_EQ(a.snapshot.events.size(), b.snapshot.events.size());
  EXPECT_EQ(a.snapshot, b.snapshot);
  // And so are the serialized forms, byte for byte.
  EXPECT_EQ(to_binary({a.snapshot}), to_binary({b.snapshot}));
  EXPECT_EQ(to_chrome_trace({a.snapshot}), to_chrome_trace({b.snapshot}));
}

TEST(FlightRecorder, ChromeExportPassesGoldenSchema) {
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  const std::string doc = to_chrome_trace({run.snapshot});
  const Status status = validate_chrome_trace(doc);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  // Empty exports are valid too (a traced bench whose filter matched
  // nothing still writes a loadable file).
  EXPECT_TRUE(validate_chrome_trace(to_chrome_trace({})).is_ok());
}

TEST(FlightRecorder, ValidatorRejectsMalformedDocuments) {
  EXPECT_FALSE(validate_chrome_trace("").is_ok());
  EXPECT_FALSE(validate_chrome_trace("[]").is_ok());
  EXPECT_FALSE(validate_chrome_trace("{}").is_ok());  // no traceEvents
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\": 3}").is_ok());
  EXPECT_FALSE(  // element is not an object
      validate_chrome_trace("{\"traceEvents\": [7]}").is_ok());
  EXPECT_FALSE(  // missing ph/name/pid
      validate_chrome_trace("{\"traceEvents\": [{\"ts\": 1}]}").is_ok());
  EXPECT_FALSE(  // "X" slice without a dur
      validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"X\", \"name\": "
                            "\"x\", \"pid\": 1, \"tid\": 1, \"ts\": 0}]}")
          .is_ok());
  EXPECT_FALSE(  // flow event without an id
      validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"s\", \"name\": "
                            "\"f\", \"pid\": 1, \"tid\": 1, \"ts\": 0}]}")
          .is_ok());
  // Trailing garbage after a valid document.
  const std::string good = to_chrome_trace({});
  EXPECT_TRUE(validate_chrome_trace(good).is_ok());
  EXPECT_FALSE(validate_chrome_trace(good + "x").is_ok());
}

TEST(FlightRecorder, BinaryDumpRoundTrips) {
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  EventLog::Snapshot second = run.snapshot;
  second.label = "second/";
  const std::string blob = to_binary({run.snapshot, second});
  std::vector<EventLog::Snapshot> parsed;
  const Status status = read_binary(blob, &parsed);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], run.snapshot);
  EXPECT_EQ(parsed[1], second);

  // Corruption is detected, not crashed on.
  EXPECT_FALSE(read_binary("nope", &parsed).is_ok());
  EXPECT_FALSE(read_binary(blob.substr(0, blob.size() - 7), &parsed).is_ok());
  EXPECT_FALSE(read_binary(blob + "x", &parsed).is_ok());
}

TEST(FlightRecorder, RejectedDumpLeavesOutputEmpty) {
  // All-or-nothing reader contract (found while building the eftr_fuzz
  // harness): a rejected dump must not hand trace_inspect a torn,
  // half-parsed snapshot — and a bad magic must clear stale output from
  // a previous successful parse.
  const TracedRun run = run_traced(SystemKind::kEFactory, true);
  const std::string blob = to_binary({run.snapshot, run.snapshot});
  std::vector<EventLog::Snapshot> parsed;
  ASSERT_TRUE(read_binary(blob, &parsed).is_ok());
  ASSERT_FALSE(parsed.empty());

  // Truncated mid-second-snapshot: the first snapshot parsed fine, but
  // the error must discard it too.
  EXPECT_FALSE(read_binary(blob.substr(0, blob.size() - 7), &parsed).is_ok());
  EXPECT_TRUE(parsed.empty());

  ASSERT_TRUE(read_binary(blob, &parsed).is_ok());
  EXPECT_FALSE(read_binary("not an EFTR dump", &parsed).is_ok());
  EXPECT_TRUE(parsed.empty());

  ASSERT_TRUE(read_binary(blob, &parsed).is_ok());
  EXPECT_FALSE(read_binary(blob + "x", &parsed).is_ok());
  EXPECT_TRUE(parsed.empty());
}

TEST(FlightRecorder, RingDropsOldestFirstAndCountsDrops) {
  sim::Simulator sim;
  EventLog log{sim, 8};
  const std::uint16_t track = log.register_track("t");
  for (std::uint64_t i = 0; i < 20; ++i) {
    log.emit(track, 0, EventType::kFault, 0, /*a=*/i);
  }
  EXPECT_EQ(log.total_emitted(), 20u);
  EXPECT_EQ(log.dropped(), 12u);
  const EventLog::Snapshot snap = log.snapshot();
  ASSERT_EQ(snap.events.size(), 8u);
  EXPECT_EQ(snap.dropped, 12u);
  // The survivors are the 8 most recent, in emission order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(snap.events[i].a, 12 + i);
  }
}

TEST(FlightRecorder, ClientOnlyKnobTracesEveryBaseline) {
  // Every system wires the recorder through its client and store; a
  // quick put/get per system must yield op lifecycles in each log.
  for (const SystemKind kind : stores::all_systems()) {
    const TracedRun run = run_traced(kind, true);
    EXPECT_TRUE(has_event(run.snapshot, EventType::kOpBegin))
        << stores::to_string(kind);
    EXPECT_TRUE(has_event(run.snapshot, EventType::kOpEnd))
        << stores::to_string(kind);
    const Status status = validate_chrome_trace(to_chrome_trace(
        {run.snapshot}));
    EXPECT_TRUE(status.is_ok())
        << stores::to_string(kind) << ": " << status.to_string();
  }
}

}  // namespace
}  // namespace efac::trace
