#include "metrics/metrics.hpp"

namespace efac::metrics {

Counter& MetricsRegistry::counter(std::string_view name) {
  if (const auto it = counter_index_.find(name); it != counter_index_.end()) {
    return counters_[it->second].cell;
  }
  counters_.push_back(NamedCounter{std::string{name}, Counter{}});
  counter_index_.emplace(counters_.back().name, counters_.size() - 1);
  return counters_.back().cell;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (const auto it = gauge_index_.find(name); it != gauge_index_.end()) {
    return gauges_[it->second].cell;
  }
  gauges_.push_back(NamedGauge{std::string{name}, Gauge{}});
  gauge_index_.emplace(gauges_.back().name, gauges_.size() - 1);
  return gauges_.back().cell;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  if (const auto it = histogram_index_.find(name);
      it != histogram_index_.end()) {
    return histograms_[it->second].cell;
  }
  histograms_.push_back(NamedHistogram{std::string{name}, Histogram{}});
  histogram_index_.emplace(histograms_.back().name, histograms_.size() - 1);
  return histograms_.back().cell;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? nullptr : &counters_[it->second].cell;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauge_index_.find(name);
  return it == gauge_index_.end() ? nullptr : &gauges_[it->second].cell;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr : &histograms_[it->second].cell;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other,
                                 std::string_view prefix) {
  std::string name;
  for (const NamedCounter& c : other.counters_) {
    name.assign(prefix);
    name += c.name;
    counter(name) += c.cell.value();
  }
  for (const NamedGauge& g : other.gauges_) {
    name.assign(prefix);
    name += g.name;
    gauge(name).set(g.cell.value());
  }
  for (const NamedHistogram& h : other.histograms_) {
    name.assign(prefix);
    name += h.name;
    histogram(name).merge(h.cell);
  }
}

void MetricsRegistry::reset() {
  for (NamedCounter& c : counters_) c.cell.value_ = 0;
  for (NamedGauge& g : gauges_) g.cell.set(0.0);
  for (NamedHistogram& h : histograms_) h.cell.reset();
}

}  // namespace efac::metrics
