#include "quotient/quotient_maplet.h"

#include <utility>

#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

QuotientMaplet::QuotientMaplet(int q_bits, int r_bits, int value_bits,
                               uint64_t hash_seed)
    : table_(q_bits, r_bits + value_bits),
      r_bits_(r_bits),
      value_bits_(value_bits),
      hash_seed_(hash_seed) {}

QuotientMaplet QuotientMaplet::ForCapacity(uint64_t n, double fpr,
                                           int value_bits) {
  const auto [q, r] = RsqfTable::SizeFor(n, fpr, value_bits);
  return QuotientMaplet(q, r, value_bits);
}

bool QuotientMaplet::Insert(HashedKey key, uint64_t value) {
  if (table_.LoadFactor() >= RsqfTable::kMaxLoadFactor ||
      table_.num_used_slots() + 1 >= table_.num_quotients()) {
    return false;
  }
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  const uint64_t slot = (fr << value_bits_) | (value & LowMask(value_bits_));
  if (!table_.InsertValue(fq, slot, /*sorted=*/false)) return false;
  ++num_entries_;
  return true;
}

bool QuotientMaplet::Expand() {
  if (r_bits_ <= 1 || !table_.Expand()) return false;
  --r_bits_;
  return true;
}

std::vector<uint64_t> QuotientMaplet::Lookup(HashedKey key) const {
  std::vector<uint64_t> values;
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  const uint64_t mask = LowMask(value_bits_);
  table_.ScanRun(fq, [&](uint64_t slot) {
    if (slot >> value_bits_ == fr) values.push_back(slot & mask);
    return true;
  });
  return values;
}

bool QuotientMaplet::Erase(HashedKey key, uint64_t value) {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  if (!table_.Occupied(fq)) return false;
  const uint64_t want = (fr << value_bits_) | (value & LowMask(value_bits_));
  const uint64_t end = table_.RunEnd(fq);
  for (uint64_t pos = table_.RunStart(fq); pos <= end; ++pos) {
    if (table_.Get(pos) == want) {
      table_.RemoveAt(fq, pos);
      --num_entries_;
      return true;
    }
  }
  return false;
}

bool QuotientMaplet::SavePayload(std::ostream& os) const {
  WriteU64(os, RsqfTable::kLayoutMarker);
  WriteI32(os, table_.q_bits());
  WriteI32(os, r_bits_);
  WriteI32(os, value_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_entries_);
  table_.SaveBody(os);
  return os.good();
}

bool QuotientMaplet::LoadPayload(std::istream& is) {
  uint64_t marker;
  int32_t q;
  int32_t r;
  int32_t v;
  uint64_t seed;
  uint64_t n;
  if (!ReadU64(is, &marker) || marker != RsqfTable::kLayoutMarker ||
      !ReadI32(is, &q) || q < 1 || q > 38 || !ReadI32(is, &r) || r < 1 ||
      !ReadI32(is, &v) || v < 1 || r > 64 - v || !ReadU64(is, &seed) ||
      !ReadU64(is, &n)) {
    return false;
  }
  RsqfTable table(1, 1);
  if (!RsqfTable::LoadBody(is, q, r + v, &table)) return false;
  r_bits_ = r;
  value_bits_ = v;
  hash_seed_ = seed;
  num_entries_ = n;
  table_ = std::move(table);
  return true;
}

}  // namespace bbf
