// Read freshness: a GET that *starts* after a PUT of the same key was
// acknowledged must return that version or newer — no system may serve
// stale data in failure-free operation. (Distinct from monotonic reads,
// which is about what survives crashes.)
//
// Holds for every system because all of them make the new version
// reachable no later than the PUT ack: eFactory/Erda/Forca/CA index at
// allocation (before the ack), SAW/IMM/RPC/Rcommit at the durability
// point (the ack itself).
#include <gtest/gtest.h>

#include <map>

#include "store_test_util.hpp"

namespace efac::stores {
namespace {

using testutil::TestCluster;

constexpr int kKeys = 8;
constexpr std::size_t kVlen = 256;

Bytes versioned(int key, int version) {
  Bytes v(kVlen, static_cast<std::uint8_t>(key + version * 3));
  v[0] = static_cast<std::uint8_t>(key);
  v[1] = static_cast<std::uint8_t>(version);
  return v;
}

class FreshnessSweep : public ::testing::TestWithParam<SystemKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllSystems, FreshnessSweep,
    ::testing::Values(SystemKind::kEFactory, SystemKind::kEFactoryNoHr,
                      SystemKind::kSaw, SystemKind::kImm, SystemKind::kErda,
                      SystemKind::kForca, SystemKind::kRpc,
                      SystemKind::kRcommit),
    [](const ::testing::TestParamInfo<SystemKind>& pinfo) {
      std::string name{to_string(pinfo.param)};
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(FreshnessSweep, ReadsNeverReturnStaleAckedData) {
  TestCluster tc{GetParam()};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = kKeys, .key_len = 32, .value_len = kVlen}};
  KvClient& writer = tc.make_client(testutil::hinted(32, kVlen));
  KvClient& reader = tc.make_client(testutil::hinted(32, kVlen));

  std::map<int, int> acked;  // key -> latest acked version
  bool writes_done = false;
  int stale_reads = 0;
  int reads = 0;

  tc.sim.spawn([](KvClient& c, workload::Workload& w, std::map<int, int>* a,
                  bool* done) -> sim::Task<void> {
    for (int v = 1; v <= 40; ++v) {
      for (int k = 0; k < kKeys; ++k) {
        const Status s = co_await c.put(w.key_at(k), versioned(k, v));
        if (s.is_ok()) (*a)[k] = v;
      }
    }
    *done = true;
  }(writer, wl, &acked, &writes_done));

  tc.sim.spawn([](sim::Simulator& s, KvClient& c, workload::Workload& w,
                  const std::map<int, int>& a, const bool* done, int* stale,
                  int* total) -> sim::Task<void> {
    Rng rng{0xF2E5};
    while (!*done) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      // Freshness floor: the newest version acked BEFORE this read began.
      const auto it = a.find(k);
      const int floor = it == a.end() ? 0 : it->second;
      const Expected<Bytes> got = co_await c.get(w.key_at(k));
      ++*total;
      if (got.has_value() && got->size() == kVlen) {
        const int version = (*got)[1];
        if (version < floor) ++*stale;
      } else if (!got.has_value() && floor > 0) {
        // An acked key must be readable in failure-free operation.
        ++*stale;
      }
      co_await sim::delay(s, rng.next_below(3'000));
    }
  }(tc.sim, reader, wl, acked, &writes_done, &stale_reads, &reads));

  tc.run_until_done([&] { return writes_done; });
  EXPECT_GT(reads, 20);
  EXPECT_EQ(stale_reads, 0)
      << to_string(GetParam()) << " served stale data in " << reads
      << " reads";
}

TEST(FreshnessContrast, CaCanServeTornBytes) {
  // CA w/o persistence is excluded from the sweep above because it fails
  // a stronger property than freshness: with neither a durability flag
  // nor a CRC, its reads can return a racing write's partially-placed
  // bytes. This deterministic schedule observes at least one such read —
  // the motivating inconsistency of the paper's §3.
  TestCluster tc{SystemKind::kCaNoPersist};
  workload::Workload wl{workload::WorkloadConfig{
      .key_count = kKeys, .key_len = 32, .value_len = kVlen}};
  KvClient& writer = tc.make_client(testutil::hinted(32, kVlen));
  KvClient& reader = tc.make_client(testutil::hinted(32, kVlen));
  bool writes_done = false;
  int torn = 0;
  tc.sim.spawn([](KvClient& c, workload::Workload& w,
                  bool* done) -> sim::Task<void> {
    for (int v = 1; v <= 40; ++v) {
      for (int k = 0; k < kKeys; ++k) {
        static_cast<void>(co_await c.put(w.key_at(k), versioned(k, v)));
      }
    }
    *done = true;
  }(writer, wl, &writes_done));
  tc.sim.spawn([](sim::Simulator& s, KvClient& c, workload::Workload& w,
                  const bool* done, int* out) -> sim::Task<void> {
    Rng rng{0xF2E5};
    while (!*done) {
      const int k = static_cast<int>(rng.next_below(kKeys));
      const Expected<Bytes> got = co_await c.get(w.key_at(k));
      if (got.has_value() && got->size() == kVlen) {
        const int version = (*got)[1];
        if (*got != versioned(k, version)) ++*out;  // not any real write
      }
      co_await sim::delay(s, rng.next_below(3'000));
    }
  }(tc.sim, reader, wl, &writes_done, &torn));
  tc.run_until_done([&] { return writes_done; });
  EXPECT_GT(torn, 0) << "expected CA to expose at least one torn read";
}

}  // namespace
}  // namespace efac::stores
