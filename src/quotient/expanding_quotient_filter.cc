#include "quotient/expanding_quotient_filter.h"

#include <utility>

#include "core/metrics_sink.h"
#include "util/serialize.h"

namespace bbf {

ExpandingQuotientFilter::ExpandingQuotientFilter(int q_bits, int r_bits,
                                                 uint64_t hash_seed)
    : filter_(q_bits, r_bits, hash_seed), hash_seed_(hash_seed) {}

bool ExpandingQuotientFilter::Insert(HashedKey key) {
  if (filter_.Insert(key)) return true;
  if (!filter_.Expand()) return false;  // Remainder bits exhausted (§2.2).
  ++expansions_;
  if (sink_ != nullptr) sink_->OnExpansion();
  return filter_.Insert(key);
}

bool ExpandingQuotientFilter::SavePayload(std::ostream& os) const {
  WriteU64(os, hash_seed_);
  WriteI32(os, expansions_);
  return filter_.SavePayload(os) && os.good();
}

bool ExpandingQuotientFilter::LoadPayload(std::istream& is) {
  uint64_t seed;
  int32_t expansions;
  if (!ReadU64(is, &seed) || !ReadI32(is, &expansions) || expansions < 0 ||
      expansions > 64) {
    return false;
  }
  QuotientFilter fresh(6, 4, seed);
  if (!fresh.LoadPayload(is)) return false;
  hash_seed_ = seed;
  expansions_ = expansions;
  filter_ = std::move(fresh);
  return true;
}

}  // namespace bbf
