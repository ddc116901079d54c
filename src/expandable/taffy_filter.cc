#include "expandable/taffy_filter.h"

#include <algorithm>
#include <utility>

#include "core/metrics_sink.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

TaffyFilter::TaffyFilter(int q_bits, int fingerprint_bits, uint64_t hash_seed)
    : table_(q_bits, fingerprint_bits + 1),  // +1 for the unary delimiter.
      fingerprint_bits_(fingerprint_bits),
      hash_seed_(hash_seed) {}

int TaffyFilter::LengthOf(uint64_t encoded) {
  return HighestSetBit(encoded);
}

uint64_t TaffyFilter::BitsOf(uint64_t encoded) {
  return encoded ^ (uint64_t{1} << HighestSetBit(encoded));
}

void TaffyFilter::KeyParts(HashedKey key, uint64_t* fq, uint64_t* fp) const {
  const uint64_t h = key.Derive(hash_seed_);
  *fq = h & (table_.num_quotients() - 1);
  *fp = h >> table_.q_bits();  // Fresh fingerprints take the next bits.
}

bool TaffyFilter::InsertEncoded(uint64_t fq, uint64_t encoded) {
  if (table_.num_used_slots() + 1 >= table_.num_quotients()) return false;
  // Runs are unordered here (lengths vary); append at the run end.
  return table_.InsertValue(fq, encoded, /*sorted=*/false);
}

bool TaffyFilter::Insert(HashedKey key) {
  if (table_.LoadFactor() >= kMaxLoadFactor) Expand();
  uint64_t fq;
  uint64_t fp;
  KeyParts(key, &fq, &fp);
  const int len = std::min(fingerprint_bits_, 64 - table_.q_bits());
  if (!InsertEncoded(fq, Encode(fp & LowMask(len), len))) return false;
  ++num_keys_;
  return true;
}

bool TaffyFilter::Contains(HashedKey key) const {
  uint64_t fq;
  uint64_t fp;
  KeyParts(key, &fq, &fp);
  bool hit = false;
  table_.ScanRun(fq, [&](uint64_t encoded) {
    // A stored fingerprint matches if it is a prefix (in low-order bits)
    // of the query's fingerprint; void entries (len 0) match everything.
    hit = (fp & LowMask(LengthOf(encoded))) == BitsOf(encoded);
    return !hit;
  });
  return hit;
}

bool TaffyFilter::Erase(HashedKey key) {
  uint64_t fq;
  uint64_t fp;
  KeyParts(key, &fq, &fp);
  if (!table_.Occupied(fq)) return false;
  // Remove the longest matching fingerprint (most specific entry).
  uint64_t best_pos = 0;
  int best_len = -1;
  const uint64_t end = table_.RunEnd(fq);
  for (uint64_t pos = table_.RunStart(fq); pos <= end; ++pos) {
    const uint64_t encoded = table_.Get(pos);
    const int len = LengthOf(encoded);
    if ((fp & LowMask(len)) == BitsOf(encoded) && len > best_len) {
      best_len = len;
      best_pos = pos;
    }
  }
  if (best_len < 0) return false;
  table_.RemoveAt(fq, best_pos);
  --num_keys_;
  return true;
}

void TaffyFilter::Expand() {
  const int old_q = table_.q_bits();
  RsqfTable old = std::move(table_);
  table_ = RsqfTable(old_q + 1, fingerprint_bits_ + 1);
  old.ForEachValue([&](uint64_t fq, uint64_t encoded) {
    const int len = LengthOf(encoded);
    if (len == 0) {
      // Void fingerprint: the donated bit is unknown, so the entry lives
      // in both children (keeps the no-false-negative guarantee).
      InsertEncoded(fq, encoded);
      InsertEncoded(fq | (uint64_t{1} << old_q), encoded);
    } else {
      const uint64_t bits = BitsOf(encoded);
      const uint64_t new_fq = fq | ((bits & 1) << old_q);
      InsertEncoded(new_fq, Encode(bits >> 1, len - 1));
    }
  });
  ++expansions_;
  if (sink_ != nullptr) sink_->OnExpansion();
}

bool TaffyFilter::SavePayload(std::ostream& os) const {
  WriteU64(os, RsqfTable::kLayoutMarker);
  WriteI32(os, fingerprint_bits_);
  WriteI32(os, expansions_);
  WriteI32(os, table_.q_bits());
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  table_.SaveBody(os);
  return os.good();
}

bool TaffyFilter::LoadPayload(std::istream& is) {
  uint64_t marker;
  int32_t f;
  int32_t expansions;
  int32_t q;
  uint64_t seed;
  uint64_t n;
  if (!ReadU64(is, &marker) || marker != RsqfTable::kLayoutMarker ||
      !ReadI32(is, &f) || f < 1 || f > 62 || !ReadI32(is, &expansions) ||
      expansions < 0 || expansions > 64 || !ReadI32(is, &q) || q < 1 ||
      q > 38 || !ReadU64(is, &seed) || !ReadU64(is, &n)) {
    return false;
  }
  // Slot width is the fresh fingerprint length plus the unary delimiter;
  // it never changes across expansions.
  RsqfTable table(1, 1);
  if (!RsqfTable::LoadBody(is, q, f + 1, &table)) return false;
  // Every stored slot must carry its delimiter: a zero slot has no length.
  bool delimited = true;
  table.ForEachValue(
      [&](uint64_t, uint64_t encoded) { delimited &= encoded != 0; });
  if (!delimited) return false;
  fingerprint_bits_ = f;
  expansions_ = expansions;
  hash_seed_ = seed;
  num_keys_ = n;
  table_ = std::move(table);
  return true;
}

}  // namespace bbf
