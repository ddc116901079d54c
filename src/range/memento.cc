#include "range/memento.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/metrics_sink.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

MementoFilter::MementoFilter(int q_bits, int r_bits, int memento_bits,
                             uint64_t hash_seed)
    : r_bits_(r_bits),
      m_bits_(memento_bits),
      hash_seed_(hash_seed),
      table_(q_bits, r_bits + memento_bits) {}

MementoFilter MementoFilter::ForCapacity(uint64_t n, double fpr,
                                         int memento_bits) {
  const uint64_t slots = NextPow2(static_cast<uint64_t>(
      std::ceil(std::max<uint64_t>(n, 1) / kMaxLoadFactor)));
  const int q = std::max(6, BitWidth(slots - 1));
  const double needed = std::log2(2.0 * kMaxLoadFactor / fpr);
  const int r =
      std::clamp(static_cast<int>(std::ceil(needed)), 1, 64 - memento_bits);
  return MementoFilter(q, r, memento_bits);
}

MementoFilter MementoFilter::ForBitsPerKey(uint64_t n, double bits_per_key,
                                           int memento_bits) {
  const uint64_t slots = NextPow2(static_cast<uint64_t>(
      std::ceil(std::max<uint64_t>(n, 1) / kMaxLoadFactor)));
  const int q = std::max(6, BitWidth(slots - 1));
  // bits/key = (2 metadata + r + m + 0.25 offset) / load; solve for r.
  const int r = std::clamp(
      static_cast<int>(std::lround(bits_per_key * kMaxLoadFactor - 2.25 -
                                   memento_bits)),
      1, 64 - memento_bits);
  return MementoFilter(q, r, memento_bits);
}

bool MementoFilter::AddKey(uint64_t key) {
  const uint64_t memento = key & LowMask(m_bits_);
  const uint64_t prefix = key >> m_bits_;
  while (true) {
    if (static_cast<double>(num_keys_) <
        kMaxLoadFactor * static_cast<double>(table_.num_quotients())) {
      uint64_t fq;
      uint64_t fr;
      table_.Split(Hash64(prefix, hash_seed_), r_bits_, &fq, &fr);
      if (table_.InsertValue(fq, (fr << m_bits_) | memento,
                             /*sorted=*/true)) {
        ++num_keys_;
        return true;
      }
    }
    if (!Expand()) return false;
  }
}

bool MementoFilter::ProbePrefix(uint64_t prefix, uint64_t m_lo,
                                uint64_t m_hi) const {
  uint64_t fq;
  uint64_t fr;
  table_.Split(Hash64(prefix, hash_seed_), r_bits_, &fq, &fr);
  if (!table_.Occupied(fq)) {
    if (sink_ != nullptr) sink_->OnProbeLength(0);
    return false;
  }
  const uint64_t lo = (fr << m_bits_) | m_lo;
  const uint64_t hi = (fr << m_bits_) | m_hi;
  bool hit = false;
  // Sorted run: stop at the first value past the window.
  const uint64_t scanned = table_.ScanRun(fq, [&](uint64_t v) {
    if (v > hi) return false;
    if (v >= lo) {
      hit = true;
      return false;
    }
    return true;
  });
  if (sink_ != nullptr) sink_->OnProbeLength(scanned);
  return hit;
}

bool MementoFilter::MayContainRange(uint64_t lo, uint64_t hi) const {
  if (lo > hi) return false;
  const uint64_t mask = LowMask(m_bits_);
  const uint64_t p_lo = lo >> m_bits_;
  const uint64_t p_hi = hi >> m_bits_;
  if (p_lo == p_hi) return ProbePrefix(p_lo, lo & mask, hi & mask);
  if (ProbePrefix(p_lo, lo & mask, mask)) return true;
  if (ProbePrefix(p_hi, 0, hi & mask)) return true;
  // Fully-covered interior prefixes need only fingerprint presence. Very
  // wide ranges give up and admit, like prefix-bloom and Grafite.
  if (p_hi - p_lo - 1 > kMaxInteriorProbes) return true;
  for (uint64_t p = p_lo + 1; p < p_hi; ++p) {
    if (ProbePrefix(p, 0, mask)) return true;
  }
  return false;
}

bool MementoFilter::Expand() {
  if (r_bits_ <= 1 || !table_.Expand()) return false;
  --r_bits_;
  ++expansions_;
  if (sink_ != nullptr) sink_->OnExpansion();
  return true;
}

bool MementoFilter::CheckInvariants() const {
  if (!table_.CheckInvariants()) return false;
  // Every run must be nondecreasing — the sorted-memento-list contract.
  bool sorted = true;
  for (uint64_t q = 0; q < table_.num_quotients(); ++q) {
    if (!table_.Occupied(q)) continue;
    uint64_t prev = 0;
    bool first = true;
    table_.ScanRun(q, [&](uint64_t v) {
      if (!first && v < prev) sorted = false;
      prev = v;
      first = false;
      return sorted;
    });
    if (!sorted) return false;
  }
  return true;
}

bool MementoFilter::Save(std::ostream& os) const {
  std::ostringstream payload;
  if (!SavePayload(payload) || !payload.good()) return false;
  return WriteSnapshotFrame(os, Name(), std::move(payload).str());
}

bool MementoFilter::Load(std::istream& is) {
  std::string tag;
  std::string payload;
  if (!ReadSnapshotFrame(is, &tag, &payload)) return false;
  if (tag != Name()) return false;
  std::istringstream ps(payload);
  return LoadPayload(ps);
}

bool MementoFilter::SavePayload(std::ostream& os) const {
  WriteI32(os, table_.q_bits());
  WriteI32(os, r_bits_);
  WriteI32(os, m_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  WriteU64(os, expansions_);
  return table_.SaveBody(os);
}

bool MementoFilter::LoadPayload(std::istream& is) {
  int32_t q;
  int32_t r;
  int32_t m;
  uint64_t seed;
  uint64_t n;
  uint64_t expansions;
  if (!ReadI32(is, &q) || q < 1 || q > 38 || !ReadI32(is, &r) || r < 1 ||
      r > 32 || !ReadI32(is, &m) || m < 1 || m > 32 ||
      !ReadU64(is, &seed) || !ReadU64(is, &n) ||
      !ReadU64(is, &expansions)) {
    return false;
  }
  RsqfTable table(1, 1);
  if (!RsqfTable::LoadBody(is, q, r + m, &table)) return false;
  r_bits_ = r;
  m_bits_ = m;
  hash_seed_ = seed;
  num_keys_ = n;
  expansions_ = expansions;
  table_ = std::move(table);
  return true;
}

}  // namespace bbf
