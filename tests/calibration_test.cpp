// Calibration regression tests: the paper-shape invariants that the bench
// figures reproduce (EXPERIMENTS.md) are asserted here with small runs, so
// a cost-model change that silently breaks a figure's *shape* fails CI.
//
// These assert orderings and coarse ratios, never exact numbers.
#include <gtest/gtest.h>

#include "stores/efactory.hpp"
#include "store_test_util.hpp"
#include "stores/world.hpp"
#include "workload/runner.hpp"

namespace efac::stores {
namespace {

constexpr std::size_t kKeyLen = 32;

/// Median single-client durable-PUT latency (Fig. 1 methodology, small N).
double median_put_us(SystemKind kind, std::size_t vlen) {
  testutil::TestCluster tc{kind, testutil::small_config(),
                           testutil::hinted(kKeyLen, vlen)};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = 16, .key_len = kKeyLen, .value_len = vlen}};
  Histogram hist;
  bool done = false;
  tc.sim.spawn([](sim::Simulator& s, KvClient& c, workload::Workload& w,
                  Histogram* out, bool* flag) -> sim::Task<void> {
    for (int i = 0; i < 250; ++i) {
      const std::uint64_t key = static_cast<std::uint64_t>(i) % 16;
      const SimTime start = s.now();
      static_cast<void>(co_await c.put(w.key_at(key), w.value_for(key, i)));
      if (i >= 50) out->record(s.now() - start);
    }
    *flag = true;
  }(tc.sim, *tc.client, wl, &hist, &done));
  tc.run_until_done([&] { return done; });
  return static_cast<double>(hist.percentile(0.5)) / 1000.0;
}

/// Throughput point (Fig. 9/10 methodology, small N).
double mops(SystemKind kind, workload::Mix mix, std::size_t vlen,
            std::size_t clients = 8) {
  workload::RunOptions options;
  options.workload.mix = mix;
  options.workload.key_count = 512;
  options.workload.key_len = kKeyLen;
  options.workload.value_len = vlen;
  options.clients = clients;
  options.ops_per_client = 400;
  World world{kind, workload::sized_store_config(options)};
  return workload::run_workload(world.sim, world.cluster, options).mops;
}

// ------------------------------------------------------------- Fig. 1

TEST(CalibrationFig1, CaWithoutPersistenceBeatsRpcAtEverySize) {
  for (const std::size_t vlen : {64u, 1024u, 4096u}) {
    EXPECT_LT(median_put_us(SystemKind::kCaNoPersist, vlen),
              median_put_us(SystemKind::kRpc, vlen))
        << "vlen=" << vlen;
  }
}

TEST(CalibrationFig1, SawIsWorseThanRpcAtEverySize) {
  for (const std::size_t vlen : {64u, 1024u, 4096u}) {
    EXPECT_GT(median_put_us(SystemKind::kSaw, vlen),
              median_put_us(SystemKind::kRpc, vlen))
        << "vlen=" << vlen;
  }
}

TEST(CalibrationFig1, ImmCrossesRpcAtLargeValues) {
  // Paper: IMM ends up ~5 % better than RPC; in our model the crossover
  // happens at 4 KB.
  EXPECT_LT(median_put_us(SystemKind::kImm, 4096),
            median_put_us(SystemKind::kRpc, 4096));
}

TEST(CalibrationFig1, RcommitBeatsEveryDurableAtAckScheme) {
  // Against the one-sided durable schemes at every size; against RPC the
  // crossover sits at larger values (RPC avoids the alloc round trip but
  // pays server copy + flush that grows with the payload).
  const double rcommit = median_put_us(SystemKind::kRcommit, 1024);
  EXPECT_LT(rcommit, median_put_us(SystemKind::kSaw, 1024));
  EXPECT_LT(rcommit, median_put_us(SystemKind::kImm, 1024));
  EXPECT_LT(median_put_us(SystemKind::kRcommit, 4096),
            median_put_us(SystemKind::kRpc, 4096));
}

// ------------------------------------------------------------- Fig. 2

TEST(CalibrationFig2, CrcOfFourKbMatchesPaper) {
  const checksum::CrcCostModel crc;
  EXPECT_NEAR(static_cast<double>(crc.cost(4096)) / 1000.0, 4.4, 0.5);
}

// ------------------------------------------------------------- Fig. 9

TEST(CalibrationFig9, ReadOnlyEFactoryMatchesImmAndSaw) {
  const double ef = mops(SystemKind::kEFactory, workload::Mix::kReadOnly,
                         2048);
  const double imm = mops(SystemKind::kImm, workload::Mix::kReadOnly, 2048);
  const double saw = mops(SystemKind::kSaw, workload::Mix::kReadOnly, 2048);
  EXPECT_NEAR(ef / imm, 1.0, 0.05);
  EXPECT_NEAR(ef / saw, 1.0, 0.05);
}

TEST(CalibrationFig9, ReadOnlyErdaDegradesWithValueSize) {
  // The client-CRC gap grows with value size (paper: up to ~1.96x at 4 KB).
  const double small_ratio =
      mops(SystemKind::kEFactory, workload::Mix::kReadOnly, 64) /
      mops(SystemKind::kErda, workload::Mix::kReadOnly, 64);
  const double large_ratio =
      mops(SystemKind::kEFactory, workload::Mix::kReadOnly, 4096) /
      mops(SystemKind::kErda, workload::Mix::kReadOnly, 4096);
  EXPECT_LT(small_ratio, 1.15);
  EXPECT_GT(large_ratio, 1.6);
  EXPECT_GT(large_ratio, small_ratio);
}

TEST(CalibrationFig9, ReadOnlyForcaIsLowest) {
  const double forca =
      mops(SystemKind::kForca, workload::Mix::kReadOnly, 2048);
  for (const SystemKind kind :
       {SystemKind::kEFactory, SystemKind::kImm, SystemKind::kSaw,
        SystemKind::kErda}) {
    EXPECT_LT(forca, mops(kind, workload::Mix::kReadOnly, 2048))
        << to_string(kind);
  }
}

TEST(CalibrationFig9, UpdateOnlyEFactoryBeatsEveryoneModestlyOverErda) {
  const double ef =
      mops(SystemKind::kEFactory, workload::Mix::kUpdateOnly, 1024);
  const double erda =
      mops(SystemKind::kErda, workload::Mix::kUpdateOnly, 1024);
  const double imm = mops(SystemKind::kImm, workload::Mix::kUpdateOnly, 1024);
  const double saw = mops(SystemKind::kSaw, workload::Mix::kUpdateOnly, 1024);
  EXPECT_GT(ef, erda);                 // the receive-region edge...
  EXPECT_LT(ef / erda, 1.30);         // ...is modest (paper: 5-22 %)
  EXPECT_GT(ef / imm, 1.25);          // IMM/SAW pay the durability RTT
  EXPECT_GT(ef / saw, 1.40);
}

TEST(CalibrationFig9, HybridReadHelpsOnReadHeavyMixes) {
  const double with_hr =
      mops(SystemKind::kEFactory, workload::Mix::kReadIntensive, 2048);
  const double without_hr =
      mops(SystemKind::kEFactoryNoHr, workload::Mix::kReadIntensive, 2048);
  EXPECT_GT(with_hr / without_hr, 1.03);  // paper: 11-24 %
}

// ------------------------------------------------------------- Fig. 10

TEST(CalibrationFig10, EFactoryScalesNearlyLinearlyOnWrites) {
  const double one =
      mops(SystemKind::kEFactory, workload::Mix::kUpdateOnly, 2048, 1);
  const double sixteen =
      mops(SystemKind::kEFactory, workload::Mix::kUpdateOnly, 2048, 16);
  EXPECT_GT(sixteen / one, 12.0);
}

TEST(CalibrationFig10, ImmFlattensOnWritesAtHighConcurrency) {
  const double eight =
      mops(SystemKind::kImm, workload::Mix::kUpdateOnly, 2048, 8);
  const double sixteen =
      mops(SystemKind::kImm, workload::Mix::kUpdateOnly, 2048, 16);
  EXPECT_LT(sixteen / eight, 1.5);  // far from the 2x of linear scaling
  // And eFactory pulls ahead by ~2x at 16 clients (paper: 2.14x).
  const double ef16 =
      mops(SystemKind::kEFactory, workload::Mix::kUpdateOnly, 2048, 16);
  EXPECT_GT(ef16 / sixteen, 1.8);
}

}  // namespace
}  // namespace efac::stores
