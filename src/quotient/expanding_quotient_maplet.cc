#include "quotient/expanding_quotient_maplet.h"

#include <utility>

#include "util/bits.h"

namespace bbf {

ExpandingQuotientMaplet::ExpandingQuotientMaplet(int q_bits, int r_bits,
                                                 int value_bits,
                                                 uint64_t hash_seed)
    : maplet_(q_bits, r_bits, value_bits, hash_seed),
      hash_seed_(hash_seed) {}

bool ExpandingQuotientMaplet::Insert(uint64_t key, uint64_t value) {
  if (maplet_.Insert(key, value)) return true;
  if (!Expand()) return false;
  return maplet_.Insert(key, value);
}

bool ExpandingQuotientMaplet::Expand() {
  const int r = maplet_.r_bits();
  if (r <= 1) return false;
  QuotientMaplet bigger(maplet_.q_bits() + 1, r - 1, maplet_.value_bits(),
                        hash_seed_);
  maplet_.ForEachEntry([&](uint64_t fq, uint64_t fr, uint64_t value) {
    const uint64_t new_fq = (fq << 1) | (fr >> (r - 1));
    bigger.InsertFingerprint(new_fq, fr & LowMask(r - 1), value);
  });
  bigger.num_entries_ = maplet_.num_entries_;
  maplet_ = std::move(bigger);
  ++expansions_;
  return true;
}

}  // namespace bbf
