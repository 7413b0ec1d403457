#include "workload/ycsb.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/assert.hpp"

namespace efac::workload {

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta) {
  EFAC_CHECK_MSG(n > 0, "zipfian over empty set");
  EFAC_CHECK_MSG(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
  zetan_ = zeta(n, theta);
  const double zeta2 = zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

double ZipfianGenerator::zeta(std::uint64_t n, double theta) {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

std::uint64_t ZipfianGenerator::next(Rng& rng) const {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

const char* to_string(Mix mix) {
  switch (mix) {
    case Mix::kReadOnly: return "read-only (YCSB-C)";
    case Mix::kReadIntensive: return "read-intensive (YCSB-B)";
    case Mix::kWriteIntensive: return "write-intensive (YCSB-A)";
    case Mix::kUpdateOnly: return "update-only";
  }
  return "unknown";
}

double put_fraction(Mix mix) {
  switch (mix) {
    case Mix::kReadOnly: return 0.0;
    case Mix::kReadIntensive: return 0.05;
    case Mix::kWriteIntensive: return 0.50;
    case Mix::kUpdateOnly: return 1.0;
  }
  return 0.0;
}

const std::vector<Mix>& all_mixes() {
  static const std::vector<Mix> kMixes{
      Mix::kReadOnly, Mix::kReadIntensive, Mix::kWriteIntensive,
      Mix::kUpdateOnly};
  return kMixes;
}

Workload::Workload(WorkloadConfig config)
    : config_(config), zipf_(config.key_count, config.zipf_theta) {
  EFAC_CHECK(config_.key_len >= 12);
}

Workload::Op Workload::next(Rng& rng) const {
  Op op;
  op.is_put = rng.next_bool(put_fraction(config_.mix));
  std::uint64_t rank = zipf_.next(rng);
  if (config_.scramble) {
    rank = mix64(rank) % config_.key_count;
  }
  op.key_index = rank;
  return op;
}

Bytes Workload::key_at(std::uint64_t index) const {
  // "user" + index zero-padded to 16 digits (more if it needs them), padded
  // with '.' to the configured width — the classic YCSB key shape at the
  // paper's 32-byte key size.
  constexpr std::size_t kMinDigits = 16;
  char head[24];  // "user" + at most 20 digits (UINT64_MAX)
  char* const end = head + sizeof(head);
  char* p = end;
  while (index != 0 || static_cast<std::size_t>(end - p) < kMinDigits) {
    *--p = static_cast<char>('0' + index % 10);
    index /= 10;
  }
  p -= 4;
  std::memcpy(p, "user", 4);
  Bytes key(config_.key_len, '.');
  std::memcpy(key.data(), p,
              std::min(static_cast<std::size_t>(end - p), key.size()));
  return key;
}

Bytes Workload::value_for(std::uint64_t key_index,
                          std::uint64_t version) const {
  Bytes value(config_.value_len);
  std::uint64_t state = mix64(key_index * 0x9E3779B97F4A7C15ULL ^ version);
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (i % 8 == 0) state = mix64(state + i);
    value[i] = static_cast<std::uint8_t>(state >> ((i % 8) * 8));
  }
  return value;
}

}  // namespace efac::workload
