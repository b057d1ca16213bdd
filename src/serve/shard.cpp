#include "serve/shard.h"

#include <algorithm>

namespace enw::serve {

std::vector<TenantPolicy> resolve_tenants(std::vector<TenantPolicy> tenants,
                                          AdmissionPolicy admission) {
  if (tenants.empty()) {
    TenantPolicy def;
    def.admission = admission;
    tenants.push_back(def);
  }
  return tenants;
}

double shard_imbalance(std::span<const std::uint64_t> per_shard_counts,
                       std::span<const std::uint8_t> live) {
  ENW_CHECK_MSG(per_shard_counts.size() == live.size(),
                "one liveness flag per shard slot");
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  std::size_t n = 0;
  for (std::size_t s = 0; s < per_shard_counts.size(); ++s) {
    if (!live[s]) continue;
    max = std::max(max, per_shard_counts[s]);
    total += per_shard_counts[s];
    ++n;
  }
  if (n == 0 || total == 0) return 0.0;
  const double mean = static_cast<double>(total) / static_cast<double>(n);
  return static_cast<double>(max) / mean;
}

double shard_imbalance(std::span<const std::uint64_t> per_shard_counts) {
  if (per_shard_counts.empty()) return 0.0;
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  for (std::uint64_t c : per_shard_counts) {
    max = std::max(max, c);
    total += c;
  }
  if (total == 0) return 0.0;
  const double mean = static_cast<double>(total) /
                      static_cast<double>(per_shard_counts.size());
  return static_cast<double>(max) / mean;
}

}  // namespace enw::serve
