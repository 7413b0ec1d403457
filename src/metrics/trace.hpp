// Virtual-time span tracing on the simulator clock.
//
// A Tracer binds a simulator (the clock) to a MetricsRegistry (the sink).
// Each span name maps to a histogram named "span.<name>" in the registry,
// so phase breakdowns (Fig. 2) fall out of the same export path as every
// other metric. Spans measure SIMULATED nanoseconds — sim.now() at open
// vs. close — never wall time.
//
// Two recording forms:
//
//   metrics::Span s{tracer_, "put.alloc_rpc"};   // RAII, or s.finish()
//   tracer_.record("server.get_crc", duration);  // direct, for known costs
//
// TRACE_SPAN(tracer, "name") declares an anonymous RAII span for a whole
// lexical scope. Spans are coroutine-safe: a span held across co_await
// lives in the coroutine frame and closes at the virtual instant the frame
// reaches its destructor. That includes ABANDONED frames — an actor
// suspended forever (e.g. a client loop cut short by an injected crash) is
// destroyed by Simulator::shutdown(), which every harness runs before the
// clients and stores die (see stores::World), so a span always closes into
// a live tracer. Span names are string literals: the tracer caches each
// name's histogram by the name's address and length, so a name's storage
// must keep its characters for the tracer's lifetime. A disabled tracer
// makes spans free apart from a branch.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/types.hpp"
#include "metrics/metrics.hpp"
#include "sim/simulator.hpp"

namespace efac::metrics {

class Tracer {
 public:
  Tracer(sim::Simulator& sim, MetricsRegistry& registry, bool enabled = true)
      : sim_(sim), registry_(registry), enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }

  [[nodiscard]] SimTime now() const noexcept { return sim_.now(); }

  /// Record a finished phase of `elapsed` virtual ns under "span.<name>"
  /// (nothing while disabled). The histogram is created at the name's
  /// first record, so creation order follows the order of first closes.
  void record(std::string_view name, SimDuration elapsed);

 private:
  /// A span name by identity: the address and length of its characters.
  struct NameKey {
    const char* data;
    std::size_t size;
    bool operator==(const NameKey&) const = default;
  };
  struct NameKeyHash {
    std::size_t operator()(const NameKey& k) const noexcept {
      return std::hash<const char*>{}(k.data) ^ k.size;
    }
  };

  sim::Simulator& sim_;
  MetricsRegistry& registry_;
  bool enabled_;
  /// Each recorded name's "span.<name>" histogram, so a close builds no
  /// string and does no ordered-map lookup. The same text reached through
  /// two addresses gets two entries pointing at one histogram.
  std::unordered_map<NameKey, Histogram*, NameKeyHash> histograms_;
};

/// RAII phase marker. Opens at construction (captures sim.now()), records
/// on finish() or destruction. When the tracer is disabled the span is
/// inert. Move-only; a moved-from span records nothing.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name) noexcept
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        start_(tracer.enabled() ? tracer.now() : 0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)),
        name_(other.name_),
        start_(other.start_) {}
  Span& operator=(Span&&) = delete;

  ~Span() { finish(); }

  /// Close the span now (idempotent); later destruction records nothing.
  void finish() {
    if (tracer_ != nullptr) tracer_->record(name_, tracer_->now() - start_);
    tracer_ = nullptr;
  }

  /// Abandon without recording (error paths that should not pollute the
  /// phase histogram).
  void cancel() noexcept { tracer_ = nullptr; }

 private:
  Tracer* tracer_;
  std::string_view name_;
  SimTime start_;
};

}  // namespace efac::metrics

// Anonymous whole-scope span: TRACE_SPAN(tracer_, "put.total");
#define EFAC_TRACE_CONCAT_INNER(a, b) a##b
#define EFAC_TRACE_CONCAT(a, b) EFAC_TRACE_CONCAT_INNER(a, b)
#define TRACE_SPAN(tracer, name) \
  ::efac::metrics::Span EFAC_TRACE_CONCAT(efac_trace_span_, __LINE__) { \
    (tracer), (name)                                                    \
  }
