#include "metrics/trace.hpp"

#include <string>

namespace efac::metrics {

void Tracer::record(std::string_view name, SimDuration elapsed) {
  if (!enabled_) return;
  Histogram*& histogram = histograms_[NameKey{name.data(), name.size()}];
  if (histogram == nullptr) {
    std::string key;
    key.reserve(5 + name.size());
    key = "span.";
    key += name;
    histogram = &registry_.histogram(key);
  }
  histogram->record(elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
}

}  // namespace efac::metrics
