#include "quotient/rsqf.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/metrics_sink.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/serialize.h"

namespace bbf {

RsqfTable::RsqfTable(int q_bits, int value_bits)
    : q_bits_(q_bits),
      value_bits_(value_bits),
      num_quotients_(uint64_t{1} << q_bits),
      total_slots_((uint64_t{1} << q_bits) + 2 * kBlockSlots),
      occupieds_(total_slots_),
      runends_(total_slots_),
      values_(total_slots_, value_bits),
      offsets_(total_slots_ / kBlockSlots + 1, 0) {}

RsqfTable::Geometry RsqfTable::SizeFor(uint64_t n, double fpr,
                                       int extra_bits) {
  const uint64_t slots =
      NextPow2(static_cast<uint64_t>(std::ceil(n / kMaxLoadFactor)));
  // FPR ~ load * 2^-r; solve r for the target at max load.
  const double needed = -std::log2(fpr / kMaxLoadFactor);
  const double max_r = std::min(63, 64 - extra_bits);
  return {std::max(6, BitWidth(slots - 1)),
          static_cast<int>(std::ceil(std::clamp(needed, 1.0, max_r)))};
}

bool RsqfTable::Expand() {
  if (value_bits_ <= 1 || q_bits_ >= 38) return false;
  const int top = value_bits_ - 1;
  RsqfTable next(q_bits_ + 1, top);
  bool ok = true;
  ForEachValue([&](uint64_t q, uint64_t value) {
    ok = ok && next.InsertValue((q << 1) | (value >> top),
                                value & LowMask(top), /*sorted=*/false);
  });
  if (ok) *this = std::move(next);
  return ok;
}

uint64_t RsqfTable::SelectRunendAfter(uint64_t from, uint64_t k) const {
  // Position of the k-th (1-indexed) runend bit at position >= from.
  uint64_t w = from / 64;
  const uint64_t num_words = runends_.NumWords();
  if (w >= num_words) return kNone;
  // Fast path: the runend lies in the word holding `from` — the common
  // case at any load below the clustering knee.
  uint64_t word = runends_.Word(w) >> (from % 64);
  if (k == 1 && word != 0) return from + CountTrailingZeros(word);
  uint64_t count = Popcount(word);
  if (count >= k) return from + SelectInWord(word, static_cast<int>(k - 1));
  k -= count;
  while (++w < num_words) {
    word = runends_.Word(w);
    count = Popcount(word);
    if (count >= k) {
      return w * 64 + SelectInWord(word, static_cast<int>(k - 1));
    }
    k -= count;
  }
  return kNone;
}

uint64_t RsqfTable::RunEndUpTo(uint64_t q) const {
  const uint64_t b = q / kBlockSlots;
  const uint64_t i = q % kBlockSlots;
  const int shift = static_cast<int>(63 - i);
  const uint64_t offset = offsets_[b];
  // This block's occupieds and runends up to q, q's bit on top.
  const uint64_t occ = occupieds_.Word(b) << shift;
  const uint64_t runs = runends_.Word(b) << shift;
  if (offset == 0 && occ == runs) {
    // Every run of the block up to q sits alone in its home slot, the
    // common case at low load: no rank or select needed.
    return runs == 0 ? kNone : q - CountLeadingZeros(runs);
  }
  // Rank of q within its block: occupied quotients in [64b, q], each of
  // which closes one run at or after the prior runs' spill boundary
  // 64b + offset. `ends` counts the runends in [64b + offset, q]; it only
  // matters when that boundary lies at or before q.
  const uint64_t d = Popcount(occ);
  const uint64_t window = runs & ~LowMask(static_cast<int>(offset) + shift);
  const uint64_t ends = Popcount(window);
  if (d == 0) {
    if (offset == 0) return kNone;  // Every earlier run ends before 64b.
    return b * kBlockSlots + offset - 1;  // Last prior run's end.
  }
  if (offset > i) {  // Prior runs spill past q itself.
    return SelectRunendAfter(b * kBlockSlots + offset, d);
  }
  if (ends == d) return q - CountLeadingZeros(window);  // The last of them.
  if (ends > d) {
    return b * kBlockSlots + offset +
           SelectInWord(runends_.Word(b) >> offset, static_cast<int>(d - 1));
  }
  return SelectRunendAfter(q + 1, d - ends);  // The run reaches past q.
}

uint64_t RsqfTable::RunStart(uint64_t q) const {
  // A run starts right after the previous occupied quotient's runend, but
  // never before its own quotient slot.
  if (q == 0) return 0;
  const uint64_t prev = RunEndUpTo(q - 1);
  return (prev == kNone || prev < q) ? q : prev + 1;
}

inline uint64_t RsqfTable::NextOccupied(uint64_t from, uint64_t to) const {
  if (from > to) return kNone;
  uint64_t w = from / 64;
  uint64_t word = occupieds_.Word(w) & ~LowMask(static_cast<int>(from % 64));
  while (word == 0) {
    if (++w > to / 64) return kNone;
    word = occupieds_.Word(w);
  }
  const uint64_t q = w * 64 + CountTrailingZeros(word);
  return q <= to ? q : kNone;
}

bool RsqfTable::ContainsValue(uint64_t q, uint64_t value,
                              uint64_t* probed) const {
  if (!occupieds_.Get(q)) {
    if (probed != nullptr) *probed = 0;
    return false;
  }
  // The home slot's payload is read before the run end is known: most
  // runs end at home, and the load then overlaps the rank/select loads
  // instead of following them.
  const uint64_t home = values_.Get(q);
  uint64_t pos = RunEndUpTo(q);
  uint64_t scanned = 0;
  bool hit = false;
  while (true) {
    ++scanned;
    if ((pos == q ? home : values_.Get(pos)) == value) {
      hit = true;
      break;
    }
    if (pos <= q) break;  // A run never starts before its quotient.
    --pos;
    if (runends_.Get(pos)) break;  // Crossed into the previous run.
  }
  if (probed != nullptr) *probed = scanned;
  return hit;
}

bool RsqfTable::InsertValue(uint64_t q, uint64_t value, bool sorted) {
  // Most inserts write at or just past the home slot: request its payload
  // line now so the miss overlaps the rank/select loads.
  values_.Prefetch(q, 1, /*for_write=*/true);
  const uint64_t e = RunEndUpTo(q);
  if (!occupieds_.Get(q)) {
    return ShiftInsert(q, (e == kNone || e < q) ? q : e + 1, value, kNone);
  }
  uint64_t p = e + 1;
  if (sorted) {
    // Splice position: the first run slot holding a larger value (equal
    // values append after it, so duplicate inserts stay adjacent).
    for (uint64_t pos = RunStart(q); pos <= e; ++pos) {
      if (values_.Get(pos) > value) {
        p = pos;
        break;
      }
    }
  }
  return ShiftInsert(q, p, value, e);
}

bool RsqfTable::InsertAt(uint64_t q, uint64_t pos, uint64_t value) {
  return ShiftInsert(q, pos, value, occupieds_.Get(q) ? RunEndUpTo(q) : kNone);
}

bool RsqfTable::ShiftInsert(uint64_t q, uint64_t p, uint64_t value,
                            uint64_t end) {
  // First unused slot u at or after p. The slots before u are used up to
  // the end of q's run (or, for a new run, up to p); after that, a slot is
  // used exactly when the next occupied quotient's run has been pushed
  // onto it, so walk the cluster run by run with bit scans, no rank.
  uint64_t u = end == kNone ? p : end + 1;
  for (uint64_t next = q; (next = NextOccupied(next + 1, u)) != kNone;) {
    u = SelectRunendAfter(u, 1) + 1;
  }
  // Slack exhausted: the last slot stays free, so every run ends before it.
  if (u + 1 >= total_slots_) return false;
  // Shift values and runend bits in [p, u) one slot right.
  for (uint64_t j = u; j > p; --j) {
    values_.Set(j, values_.Get(j - 1));
    runends_.Assign(j, runends_.Get(j - 1));
  }
  values_.Set(p, value);
  if (end == kNone) {
    occupieds_.Set(q);
    runends_.Set(p);
  } else if (p == end + 1) {
    // Append to the existing run: its old end is an end no more.
    runends_.Clear(end);
    runends_.Set(p);
  } else {
    // Mid-run splice: the shift carried the run's end bit one right on
    // its own. The spliced slot is interior — clear the stale copy the
    // shift left behind when p was the run end itself.
    runends_.Clear(p);
  }
  ++used_slots_;
  // Offsets of block boundaries in (q, u+1] may have changed: the
  // inserted/extended run can spill across them and the shift moved every
  // runend in [p, u) one right. Boundaries at or before q are provably
  // untouched (their controlling runend precedes p), so the recurrence
  // can rebuild the window from the block containing q.
  if ((u + 1) / kBlockSlots > q / kBlockSlots) {
    RecomputeOffsets(q / kBlockSlots + 1, (u + 1) / kBlockSlots);
  }
  return true;
}

void RsqfTable::RemoveAt(uint64_t q, uint64_t pos) {
  const uint64_t start = RunStart(q);
  const uint64_t end = RunEndUpTo(q);
  // The removal pulls every following run of the cluster one slot left,
  // up to the first run that already sits in its home slot.
  uint64_t last = end;
  for (uint64_t next = q;
       (next = NextOccupied(next + 1, last)) != kNone;) {
    last = SelectRunendAfter(last + 1, 1);
  }
  if (start == end) {
    occupieds_.Clear(q);  // The run empties; the shift drops its runend.
  } else if (pos == end) {
    runends_.Set(end - 1);
  }
  for (uint64_t j = pos; j < last; ++j) {
    values_.Set(j, values_.Get(j + 1));
    runends_.Assign(j, runends_.Get(j + 1));
  }
  values_.Set(last, 0);
  runends_.Clear(last);
  --used_slots_;
  if ((last + 1) / kBlockSlots > q / kBlockSlots) {
    RecomputeOffsets(q / kBlockSlots + 1, (last + 1) / kBlockSlots);
  }
}

void RsqfTable::RecomputeOffsets(uint64_t first_block, uint64_t last_block) {
  last_block = std::min<uint64_t>(last_block, offsets_.size() - 1);
  for (uint64_t b = std::max<uint64_t>(first_block, 1); b <= last_block;
       ++b) {
    const uint64_t prev_occ = Popcount(occupieds_.Word(b - 1));
    uint64_t last_runend;
    if (prev_occ == 0) {
      // Block b-1 added no runs; inherit the previous spill (if any).
      if (offsets_[b - 1] == 0) {
        offsets_[b] = 0;
        continue;
      }
      last_runend = (b - 1) * kBlockSlots + offsets_[b - 1] - 1;
    } else {
      last_runend = SelectRunendAfter(
          (b - 1) * kBlockSlots + offsets_[b - 1], prev_occ);
    }
    const uint64_t boundary = b * kBlockSlots;
    offsets_[b] = last_runend != kNone && last_runend + 1 > boundary
                      ? static_cast<uint16_t>(last_runend + 1 - boundary)
                      : 0;
  }
}

const char* RsqfTable::Rebuild(std::vector<uint16_t>* offsets,
                               uint64_t* used) const {
  offsets->assign(total_slots_ / kBlockSlots + 1, 0);
  *used = 0;
  uint64_t prev_end = kNone;  // Runend of the last run walked.
  uint64_t next_block = 1;    // First block boundary not yet filled.
  // A boundary's offset is how far the last run of the quotients before
  // it spills past it.
  auto fill_boundaries_up_to = [&](uint64_t slot) {
    for (; next_block < offsets->size() && next_block * kBlockSlots <= slot;
         ++next_block) {
      const uint64_t boundary = next_block * kBlockSlots;
      if (prev_end == kNone || prev_end + 1 <= boundary) continue;
      if (prev_end + 1 - boundary > 0xFFFF) return false;
      (*offsets)[next_block] = static_cast<uint16_t>(prev_end + 1 - boundary);
    }
    return true;
  };
  for (uint64_t w = 0; w < occupieds_.NumWords(); ++w) {
    for (uint64_t word = occupieds_.Word(w); word != 0; word &= word - 1) {
      const uint64_t q = w * 64 + CountTrailingZeros(word);
      if (q >= num_quotients_) return "occupied bit past the last quotient";
      if (!fill_boundaries_up_to(q)) return "offset overflow";
      // The i-th runend closes the i-th occupied quotient's run.
      const uint64_t e =
          SelectRunendAfter(prev_end == kNone ? 0 : prev_end + 1, 1);
      if (e == kNone) return "fewer runends than occupied quotients";
      if (e < q) return "runend before its quotient";
      *used += e - ((prev_end == kNone || prev_end < q) ? q : prev_end + 1) + 1;
      prev_end = e;
    }
  }
  // Inserts keep the last slot free; a run into it would let the next
  // append run off the table.
  if (prev_end != kNone && prev_end + 1 >= total_slots_) {
    return "run ends in the last slot";
  }
  if (!fill_boundaries_up_to(kNone - 1)) return "offset overflow";
  if (SelectRunendAfter(prev_end == kNone ? 0 : prev_end + 1, 1) != kNone) {
    return "more runends than occupied quotients";
  }
  return nullptr;
}

bool RsqfTable::CheckInvariants() const {
  std::vector<uint16_t> offsets;
  uint64_t used;
  const char* why = Rebuild(&offsets, &used);
  if (why == nullptr && offsets != offsets_) why = "stale offsets";
  if (why == nullptr && used != used_slots_) why = "used-slot count drift";
  if (why != nullptr) std::fprintf(stderr, "rsqf: %s\n", why);
  return why == nullptr;
}

bool RsqfTable::SaveBody(std::ostream& os) const {
  occupieds_.Save(os);
  runends_.Save(os);
  values_.Save(os);
  for (uint16_t o : offsets_) WriteU64(os, o);
  return os.good();
}

bool RsqfTable::LoadBody(std::istream& is, int q_bits, int value_bits,
                         RsqfTable* out) {
  if (q_bits < 1 || q_bits > 38 || value_bits < 1 || value_bits > 64) {
    return false;
  }
  RsqfTable fresh(1, 1);
  fresh.q_bits_ = q_bits;
  fresh.value_bits_ = value_bits;
  fresh.num_quotients_ = uint64_t{1} << q_bits;
  fresh.total_slots_ = fresh.num_quotients_ + 2 * kBlockSlots;
  const uint64_t total_slots = fresh.total_slots_;
  if (!fresh.occupieds_.Load(is) || fresh.occupieds_.size() != total_slots ||
      !fresh.runends_.Load(is) || fresh.runends_.size() != total_slots ||
      !fresh.values_.Load(is) || fresh.values_.size() != total_slots ||
      fresh.values_.width() != value_bits) {
    return false;
  }
  fresh.offsets_.resize(total_slots / kBlockSlots + 1);
  for (uint16_t& offset : fresh.offsets_) {
    uint64_t v;
    if (!ReadU64Capped(is, &v, 0xFFFF)) return false;
    offset = static_cast<uint16_t>(v);
  }
  // The lookups trust the metadata: a runend missing or placed before its
  // quotient, or an offset that disagrees with the runends (even one still
  // in range), would send a later probe outside its run or the table.
  std::vector<uint16_t> offsets;
  if (fresh.Rebuild(&offsets, &fresh.used_slots_) != nullptr ||
      offsets != fresh.offsets_) {
    return false;
  }
  *out = std::move(fresh);
  return true;
}

Rsqf::Rsqf(int q_bits, int r_bits, uint64_t hash_seed)
    : r_bits_(r_bits), hash_seed_(hash_seed), table_(q_bits, r_bits) {}

Rsqf Rsqf::ForCapacity(uint64_t n, double fpr) {
  const auto [q, r] = RsqfTable::SizeFor(n, fpr);
  return Rsqf(q, r);
}

bool Rsqf::Contains(HashedKey key) const {
  uint64_t fq;
  uint64_t fr;
  table_.Split(key.Derive(hash_seed_), r_bits_, &fq, &fr);
  uint64_t probed;
  const bool hit = table_.ContainsValue(fq, fr, &probed);
  if (sink_ != nullptr) sink_->OnProbeLength(probed);
  return hit;
}

bool Rsqf::Insert(HashedKey key) {
  if (LoadFactor() >= kMaxLoadFactor) return false;
  uint64_t fq;
  uint64_t fr;
  table_.Split(key.Derive(hash_seed_), r_bits_, &fq, &fr);
  if (!table_.InsertValue(fq, fr, /*sorted=*/false)) return false;
  ++num_keys_;
  return true;
}

bool Rsqf::SavePayload(std::ostream& os) const {
  WriteI32(os, table_.q_bits());
  WriteI32(os, r_bits_);
  WriteU64(os, hash_seed_);
  WriteU64(os, num_keys_);
  return table_.SaveBody(os);
}

bool Rsqf::LoadPayload(std::istream& is) {
  int32_t q;
  int32_t r;
  uint64_t seed;
  uint64_t n;
  // r stays below 64 so the split's shift by r is defined.
  if (!ReadI32(is, &q) || q < 1 || q > 38 || !ReadI32(is, &r) || r < 1 ||
      r > 63 || !ReadU64(is, &seed) || !ReadU64(is, &n)) {
    return false;
  }
  RsqfTable table(1, 1);
  if (!RsqfTable::LoadBody(is, q, r, &table)) return false;
  r_bits_ = r;
  hash_seed_ = seed;
  num_keys_ = n;
  table_ = std::move(table);
  return true;
}

}  // namespace bbf
