#include "quotient/quotient_filter.h"

#include <algorithm>

#include "core/metrics_sink.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {
namespace {

// Shared admission rule of the plain and counting quotient filters: below
// the maximum load, and never a full quotient's worth of slots.
bool HasRoom(const RsqfTable& table) {
  return table.LoadFactor() < QuotientFilter::kMaxLoadFactor &&
         table.num_used_slots() + 1 < table.num_quotients();
}

// Shared payload shape of the plain and counting quotient filters: layout
// marker, geometry, seed, key count, then the table body. The table loads
// into a local and is only committed on success, so a corrupt payload
// cannot leave a half-written filter behind.
void SaveQfPayload(std::ostream& os, int r_bits, uint64_t hash_seed,
                   uint64_t num_keys, const RsqfTable& table) {
  WriteU64(os, RsqfTable::kLayoutMarker);
  WriteI32(os, table.q_bits());
  WriteI32(os, r_bits);
  WriteU64(os, hash_seed);
  WriteU64(os, num_keys);
  table.SaveBody(os);
}

// `extra_bits` is the payload width beyond the remainder (the counting
// variant's digit flag). r stays below 64 so the fingerprint split's
// shift by r is defined.
bool LoadQfPayload(std::istream& is, int extra_bits, int* r_bits,
                   uint64_t* hash_seed, uint64_t* num_keys,
                   RsqfTable* table) {
  uint64_t marker;
  int32_t q;
  int32_t r;
  uint64_t seed;
  uint64_t n;
  if (!ReadU64(is, &marker) || marker != RsqfTable::kLayoutMarker ||
      !ReadI32(is, &q) || q < 1 || q > 38 || !ReadI32(is, &r) || r < 1 ||
      r > 63 || !ReadU64(is, &seed) || !ReadU64(is, &n)) {
    return false;
  }
  RsqfTable fresh(1, 1);
  if (!RsqfTable::LoadBody(is, q, r + extra_bits, &fresh)) return false;
  *r_bits = r;
  *hash_seed = seed;
  *num_keys = n;
  *table = std::move(fresh);
  return true;
}

}  // namespace

QuotientFilter::QuotientFilter(int q_bits, int r_bits, uint64_t hash_seed)
    : table_(q_bits, r_bits), r_bits_(r_bits), hash_seed_(hash_seed) {}

QuotientFilter QuotientFilter::ForCapacity(uint64_t n, double fpr) {
  const auto [q, r] = RsqfTable::SizeFor(n, fpr);
  return QuotientFilter(q, r);
}

bool QuotientFilter::Expand() {
  if (r_bits_ <= 1 || !table_.Expand()) return false;
  --r_bits_;
  return true;
}

bool QuotientFilter::Insert(HashedKey key) {
  if (!HasRoom(table_)) return false;
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  // Runs are unordered multisets: a new remainder joins its run's end.
  if (!table_.InsertValue(fq, fr, /*sorted=*/false)) return false;
  ++num_keys_;
  return true;
}

bool QuotientFilter::Contains(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  return ContainsFingerprint(fq, fr);
}

bool QuotientFilter::ContainsFingerprint(uint64_t fq, uint64_t fr) const {
  uint64_t probed;  // Run slots scanned; 0 = unoccupied quotient.
  const bool found = table_.ContainsValue(fq, fr, &probed);
  if (sink_ != nullptr) sink_->OnProbeLength(probed);
  return found;
}

void QuotientFilter::ContainsMany(std::span<const HashedKey> keys,
                                  uint8_t* out) const {
  // Prefetching only pays once probes actually miss: a cache-resident
  // table answers from L2/LLC and the two-pass bookkeeping is pure
  // overhead, so small tables keep the scalar loop.
  constexpr size_t kPrefetchMinBits = size_t{1} << 25;  // 4 MiB.
  if (table_.SpaceBits() < kPrefetchMinBits) {
    Filter::ContainsMany(keys, out);
    return;
  }
  constexpr size_t kTile = 32;
  uint64_t fq[kTile];
  uint64_t fr[kTile];
  for (size_t base = 0; base < keys.size(); base += kTile) {
    const size_t n = std::min(kTile, keys.size() - base);
    // Pass 1: fingerprint and request each quotient's lines.
    for (size_t j = 0; j < n; ++j) {
      Fingerprint(keys[base + j], &fq[j], &fr[j]);
      table_.Prefetch(fq[j]);
    }
    // Pass 2: walk the runs; the home lines are resident by now.
    for (size_t j = 0; j < n; ++j) {
      out[base + j] = ContainsFingerprint(fq[j], fr[j]) ? 1 : 0;
    }
  }
}

size_t QuotientFilter::InsertMany(std::span<const HashedKey> keys) {
  constexpr size_t kTile = 32;
  uint64_t fq[kTile];
  uint64_t fr[kTile];
  size_t inserted = 0;
  for (size_t base = 0; base < keys.size(); base += kTile) {
    const size_t n = std::min(kTile, keys.size() - base);
    for (size_t j = 0; j < n; ++j) {
      Fingerprint(keys[base + j], &fq[j], &fr[j]);
      table_.Prefetch(fq[j], /*for_write=*/true);
    }
    for (size_t j = 0; j < n; ++j) {
      // Same per-key admission check as Insert.
      if (HasRoom(table_) &&
          table_.InsertValue(fq[j], fr[j], /*sorted=*/false)) {
        ++num_keys_;
        ++inserted;
      }
    }
  }
  return inserted;
}

uint64_t QuotientFilter::Count(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t count = 0;
  table_.ScanRun(fq, [&](uint64_t rem) {
    count += rem == fr;
    return true;
  });
  return count;
}

bool QuotientFilter::Erase(HashedKey key) {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  if (!table_.Occupied(fq)) return false;
  const uint64_t end = table_.RunEnd(fq);
  for (uint64_t pos = table_.RunStart(fq); pos <= end; ++pos) {
    if (table_.Get(pos) == fr) {
      table_.RemoveAt(fq, pos);
      --num_keys_;
      return true;
    }
  }
  return false;
}

bool QuotientFilter::SavePayload(std::ostream& os) const {
  SaveQfPayload(os, r_bits_, hash_seed_, num_keys_, table_);
  return os.good();
}

bool QuotientFilter::LoadPayload(std::istream& is) {
  return LoadQfPayload(is, /*extra_bits=*/0, &r_bits_, &hash_seed_,
                       &num_keys_, &table_);
}

// ---------------------------------------------------------------------------
// CountingQuotientFilter
// ---------------------------------------------------------------------------

CountingQuotientFilter::CountingQuotientFilter(int q_bits, int r_bits,
                                               uint64_t hash_seed)
    : table_(q_bits, r_bits + 1),  // +1 for the digit flag.
      r_bits_(r_bits),
      hash_seed_(hash_seed) {}

CountingQuotientFilter CountingQuotientFilter::ForCapacity(uint64_t n,
                                                           double fpr) {
  const auto [q, r] = RsqfTable::SizeFor(n, fpr, /*extra_bits=*/1);
  return CountingQuotientFilter(q, r);
}

bool CountingQuotientFilter::FindRemainderSlot(uint64_t fq, uint64_t fr,
                                               uint64_t* pos,
                                               uint64_t* end) const {
  if (!table_.Occupied(fq)) return false;
  *end = table_.RunEnd(fq);
  // A remainder slot holds fr << 1; digit slots carry the low flag bit.
  for (uint64_t s = table_.RunStart(fq); s <= *end; ++s) {
    if (table_.Get(s) == fr << 1) {
      *pos = s;
      return true;
    }
  }
  return false;
}

uint64_t CountingQuotientFilter::ReadCount(
    uint64_t pos, uint64_t end, std::vector<uint64_t>* digits) const {
  // Little-endian base-2^r digits of (count - 1) follow the remainder slot.
  uint64_t count = 1;
  uint64_t base = 1;
  for (uint64_t s = pos + 1; s <= end && (table_.Get(s) & 1) != 0; ++s) {
    if (digits != nullptr) digits->push_back(s);
    count += (table_.Get(s) >> 1) * base;
    base <<= r_bits_;
  }
  return count;
}

bool CountingQuotientFilter::Insert(HashedKey key) {
  if (!HasRoom(table_)) return false;
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);

  uint64_t pos;
  uint64_t end;
  if (!FindRemainderSlot(fq, fr, &pos, &end)) {
    // New key: a remainder slot at the end of its run.
    if (!table_.InsertValue(fq, fr << 1, /*sorted=*/false)) return false;
    ++num_keys_;
    return true;
  }
  // Existing key: bump the variable-length counter.
  std::vector<uint64_t> digits;
  uint64_t c = ReadCount(pos, end, &digits);  // New count - 1 == old count.
  const uint64_t mask = LowMask(r_bits_);
  for (uint64_t d : digits) {
    table_.Set(d, ((c & mask) << 1) | 1);
    c >>= r_bits_;
  }
  if (c > 0) {
    // Counter grew a digit: the new most-significant digit goes after the
    // last existing digit (or right after the remainder slot).
    const uint64_t after = digits.empty() ? pos : digits.back();
    if (!table_.InsertAt(fq, after + 1, ((c & mask) << 1) | 1)) {
      // Slack exhausted. A carry out of the top digit means every digit
      // was 2^r - 1: restore them so the count stays exact.
      for (uint64_t d : digits) table_.Set(d, (mask << 1) | 1);
      return false;
    }
  }
  ++num_keys_;
  return true;
}

uint64_t CountingQuotientFilter::Count(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t pos;
  uint64_t end;
  if (!FindRemainderSlot(fq, fr, &pos, &end)) return 0;
  return ReadCount(pos, end, nullptr);
}

bool CountingQuotientFilter::Erase(HashedKey key) {
  uint64_t fq;
  uint64_t fr;
  Fingerprint(key, &fq, &fr);
  uint64_t pos;
  uint64_t end;
  if (!FindRemainderSlot(fq, fr, &pos, &end)) return false;
  std::vector<uint64_t> digits;
  const uint64_t count = ReadCount(pos, end, &digits);
  if (count == 1) {
    // Remove the remainder slot itself (it has no digit slots).
    table_.RemoveAt(fq, pos);
  } else {
    // Rewrite digits for count - 2 == (count - 1) - 1; drop the top digit
    // slots the shorter encoding no longer needs.
    uint64_t c = count - 2;
    const uint64_t mask = LowMask(r_bits_);
    size_t needed = 0;
    for (uint64_t v = c; v > 0; v >>= r_bits_) ++needed;
    for (size_t i = 0; i < needed; ++i) {
      table_.Set(digits[i], ((c & mask) << 1) | 1);
      c >>= r_bits_;
    }
    for (size_t i = digits.size(); i > needed; --i) {
      table_.RemoveAt(fq, digits[i - 1]);
    }
  }
  --num_keys_;
  return true;
}

bool CountingQuotientFilter::SavePayload(std::ostream& os) const {
  SaveQfPayload(os, r_bits_, hash_seed_, num_keys_, table_);
  return os.good();
}

bool CountingQuotientFilter::LoadPayload(std::istream& is) {
  return LoadQfPayload(is, /*extra_bits=*/1, &r_bits_, &hash_seed_,
                       &num_keys_, &table_);
}

}  // namespace bbf
