// Trace record & replay: capture a deterministic operation stream to a
// file, then replay the identical stream against any system.
//
//   # record 2000 ops of a write-heavy mix with occasional deletes
//   $ ./examples/trace_replay record /tmp/ops.trace a 2000
//
//   # replay it against two systems and compare
//   $ ./examples/trace_replay replay /tmp/ops.trace efactory
//   $ ./examples/trace_replay replay /tmp/ops.trace saw
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "stores/world.hpp"
#include "workload/runner.hpp"
#include "workload/trace.hpp"

using namespace efac;  // NOLINT: example brevity

namespace {

constexpr std::size_t kKeys = 256;
constexpr std::size_t kValueLen = 512;

workload::Workload make_workload(workload::Mix mix) {
  return workload::Workload{workload::WorkloadConfig{
      .mix = mix, .key_count = kKeys, .key_len = 32, .value_len = kValueLen}};
}

int record(const char* path, const char* mix_name, std::size_t ops) {
  workload::Mix mix = workload::Mix::kWriteIntensive;
  if (std::strcmp(mix_name, "b") == 0) mix = workload::Mix::kReadIntensive;
  if (std::strcmp(mix_name, "c") == 0) mix = workload::Mix::kReadOnly;
  if (std::strcmp(mix_name, "u") == 0) mix = workload::Mix::kUpdateOnly;

  const workload::Workload wl = make_workload(mix);
  const workload::Trace trace =
      workload::Trace::from_workload(wl, ops, /*seed=*/0x7ACE,
                                     /*delete_fraction=*/0.03);
  std::ofstream out{path};
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  trace.save(out);
  std::printf("recorded %zu ops (%s mix) to %s\n", trace.size(),
              workload::to_string(mix), path);
  return 0;
}

int replay(const char* path, const char* system_name) {
  static const std::map<std::string, stores::SystemKind> kNames{
      {"efactory", stores::SystemKind::kEFactory},
      {"efactory-nohr", stores::SystemKind::kEFactoryNoHr},
      {"saw", stores::SystemKind::kSaw},
      {"imm", stores::SystemKind::kImm},
      {"erda", stores::SystemKind::kErda},
      {"forca", stores::SystemKind::kForca},
      {"rpc", stores::SystemKind::kRpc},
      {"rcommit", stores::SystemKind::kRcommit},
  };
  const auto it = kNames.find(system_name);
  if (it == kNames.end()) {
    std::fprintf(stderr, "unknown system '%s'\n", system_name);
    return 2;
  }
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  const Expected<workload::Trace> trace = workload::Trace::load(in);
  if (!trace.has_value()) {
    std::fprintf(stderr, "bad trace: %s\n",
                 trace.status().to_string().c_str());
    return 1;
  }
  // Deletes need eFactory; other systems replay P/G-only traces.
  const workload::Workload wl = make_workload(workload::Mix::kWriteIntensive);

  stores::StoreConfig config;
  config.pool_bytes = 32 * sizeconst::kMiB;
  stores::World world{it->second, config};
  world.start();
  stores::ClientOptions copts;
  copts.size_hint = {32, kValueLen};
  stores::KvClient& client = world.make_client(copts);

  std::optional<workload::ReplayResult> result;
  world.sim.spawn([](sim::Simulator& s, stores::KvClient& c,
                     const workload::Workload& w, const workload::Trace& t,
                     std::optional<workload::ReplayResult>* out)
                      -> sim::Task<void> {
    out->emplace(co_await workload::replay_trace(s, c, w, t));
  }(world.sim, client, wl, *trace, &result));
  while (!result.has_value()) {
    world.sim.run_until(world.sim.now() + timeconst::kMillisecond);
  }

  std::printf("replayed %zu ops against %s:\n", trace->size(),
              std::string{stores::to_string(it->second)}.c_str());
  std::printf(
      "  %llu puts, %llu gets, %llu deletes (%llu unsupported), "
      "%llu failures\n",
      static_cast<unsigned long long>(result->puts),
      static_cast<unsigned long long>(result->gets),
      static_cast<unsigned long long>(result->deletes),
      static_cast<unsigned long long>(result->unsupported),
      static_cast<unsigned long long>(result->failures));
  std::printf("  virtual time: %.3f ms  (%.3f Mops/s single-client)\n",
              static_cast<double>(result->span_ns) / 1e6,
              static_cast<double>(trace->size()) * 1000.0 /
                  static_cast<double>(result->span_ns));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "record") == 0) {
    const char* mix = argc > 3 ? argv[3] : "a";
    const std::size_t ops =
        argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 2000;
    return record(argv[2], mix, ops);
  }
  if (argc >= 4 && std::strcmp(argv[1], "replay") == 0) {
    return replay(argv[2], argv[3]);
  }
  std::fprintf(stderr,
               "usage:\n  %s record <file> [a|b|c|u] [ops]\n"
               "  %s replay <file> <system>\n",
               argv[0], argv[0]);
  return 2;
}
