#include "metrics/trace.hpp"

#include <string>

namespace efac::metrics {

void Tracer::record(std::string_view name, SimDuration elapsed) {
  if (!enabled_) return;
  std::string key;
  key.reserve(5 + name.size());
  key = "span.";
  key += name;
  registry_.histogram(key).record(
      elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
}

}  // namespace efac::metrics
