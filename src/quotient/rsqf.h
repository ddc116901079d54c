#ifndef BBF_QUOTIENT_RSQF_H_
#define BBF_QUOTIENT_RSQF_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "core/filter.h"
#include "util/bit_vector.h"
#include "util/bits.h"
#include "util/compact_vector.h"

namespace bbf {

/// The rank-and-select quotient-filter substrate [Pandey et al. 2017]:
/// the metadata scheme behind the paper's "quotient filter uses
/// n lg(1/eps) + 2.125n bits" (§2). Instead of the original three bits per
/// slot, each slot carries two: `occupieds` (some key has this quotient)
/// and `runends` (this slot ends a run), tied together by a global
/// bijection — the i-th occupied quotient's run ends at the i-th runend
/// bit. Per-64-slot-block *offsets* make rank/select local, giving the
/// 2 + 64/|block| ≈ 2.125 metadata bits per slot.
///
/// RsqfTable is the library's one quotient slot engine, generic over the
/// per-slot payload width; every quotient family stores its own encoding
/// in the payload:
///   - `Rsqf`, `QuotientFilter`: bare r-bit remainders;
///   - `CountingQuotientFilter`: (r+1) bits, `(digit << 1) | is_digit`, so
///     a remainder slot is followed by its counter digits;
///   - `QuotientMaplet`: `(remainder << v) | value`;
///   - `TaffyFilter`: unary-delimited variable-length fingerprints;
///   - `MementoFilter` (src/range/memento.h): `(remainder << m) | memento`,
///     with each run kept sorted so it doubles as the memento list.
/// The table also owns how a hash becomes a slot and how that grows:
/// `Split` is the one (quotient, remainder) split, `SizeFor` the one
/// capacity sizing rule, and `Expand` the one bit-sacrifice doubling
/// (§2.2). Every family above except Taffy splits through `Split`, and
/// every payload that leads with the remainder (all but the CQF's and
/// Taffy's) can grow through `Expand`; Taffy keeps its own split and its
/// own low-bit-to-top-bit transform (DESIGN.md §6.2).
///
/// Every insert shifts the rest of the cluster one slot right and every
/// removal shifts it back left, stopping at runs that sit in their home
/// slot. The table avoids wraparound with a small slack region after the
/// last quotient and uses 16-bit offsets (2 + 0.25 metadata bits/slot) —
/// all documented in DESIGN.md.
class RsqfTable {
 public:
  RsqfTable(int q_bits, int value_bits);

  struct Geometry {
    int q_bits;
    int r_bits;
  };
  /// The capacity sizing rule: the fewest quotients (at least 2^6) that
  /// hold `n` keys below kMaxLoadFactor, and the r that solves
  /// FPR ~ load * 2^-r at that load. r is clamped to [1, 63] and to
  /// 64 - `extra_bits`, the family's payload bits beyond the remainder,
  /// so the split's shift stays defined and a payload fits in 64 bits.
  static Geometry SizeFor(uint64_t n, double fpr, int extra_bits = 0);

  /// The quotient/remainder split of a 64-bit hash `h` with r-bit
  /// remainders (r < 64): the remainder is the low r bits, the quotient
  /// the q bits above them.
  void Split(uint64_t h, int r_bits, uint64_t* fq, uint64_t* fr) const {
    *fq = (h >> r_bits) & (num_quotients_ - 1);
    *fr = h & LowMask(r_bits);
  }

  /// Bit-sacrifice doubling (§2.2): turns this (q, w) table into a
  /// (q+1, w-1) one, moving each payload's top bit into the low bit of its
  /// new quotient. For payloads that lead with the remainder, the result
  /// is the table that `Split` with r-1 builds from the same hashes, so no
  /// key is needed. One ForEachValue pass appends in visit order, which
  /// keeps sorted runs sorted. Returns false, leaving the table untouched,
  /// when w == 1, q is at LoadBody's 38-bit cap, or the rebuild runs out
  /// of slack.
  bool Expand();

  int q_bits() const { return q_bits_; }
  uint64_t num_quotients() const { return num_quotients_; }
  uint64_t total_slots() const { return total_slots_; }
  /// Slots holding a payload (keys plus any per-family extra slots).
  uint64_t num_used_slots() const { return used_slots_; }
  /// Used slots per quotient: the load the quotient families admit by.
  double LoadFactor() const {
    return static_cast<double>(used_slots_) / num_quotients_;
  }
  int value_bits() const { return value_bits_; }
  bool Occupied(uint64_t q) const { return occupieds_.Get(q); }

  /// Payload of slot `pos`; rewriting it in place keeps the structure.
  uint64_t Get(uint64_t pos) const { return values_.Get(pos); }
  void Set(uint64_t pos, uint64_t value) { values_.Set(pos, value); }

  /// The run of an occupied quotient `q` is the slot range
  /// [RunStart(q), RunEnd(q)]. For an unoccupied `q`, RunStart is the
  /// slot a new run would take.
  uint64_t RunStart(uint64_t q) const;
  uint64_t RunEnd(uint64_t q) const { return RunEndUpTo(q); }

  /// Inserts `value` into the run of quotient `q`. With `sorted` the
  /// value is spliced at its ordered position (runs stay nondecreasing);
  /// otherwise it is appended at the run end. Returns false when the
  /// slack region is exhausted.
  bool InsertValue(uint64_t q, uint64_t value, bool sorted);

  /// Inserts `value` at slot `pos` of the run of `q`, where `pos` lies in
  /// [RunStart(q), RunEnd(q) + 1] (just RunStart(q) when `q` is
  /// unoccupied); the slots from `pos` on shift one right. Returns false
  /// when the slack region is exhausted.
  bool InsertAt(uint64_t q, uint64_t pos, uint64_t value);

  /// Removes slot `pos` of the run of occupied quotient `q`, shifting the
  /// rest of the cluster one slot left; a run that empties frees `q`.
  void RemoveAt(uint64_t q, uint64_t pos);

  /// True when the run of `q` holds `value`, scanning backward from the
  /// run end (the classic RSQF probe). Writes the number of slots scanned
  /// to `*probed` when non-null (0 = quotient unoccupied).
  bool ContainsValue(uint64_t q, uint64_t value, uint64_t* probed) const;

  /// Calls `fn(value)` over the run of `q` in storage order (ascending
  /// for sorted runs); stops early when fn returns false. Returns the
  /// number of slots visited (0 = quotient unoccupied).
  template <typename Fn>
  uint64_t ScanRun(uint64_t q, Fn&& fn) const {
    if (!occupieds_.Get(q)) return 0;
    const uint64_t end = RunEndUpTo(q);
    uint64_t scanned = 0;
    for (uint64_t pos = RunStart(q); pos <= end; ++pos) {
      ++scanned;
      if (!fn(values_.Get(pos))) break;
    }
    return scanned;
  }

  /// Calls `fn(q, value)` for every stored value in quotient order (and
  /// storage order within a run) — the resize/rebuild iteration. One
  /// linear pass over the runends: no rank or select per run.
  template <typename Fn>
  void ForEachValue(Fn&& fn) const {
    uint64_t pos = 0;  // Next unvisited slot.
    for (uint64_t w = 0; w * 64 < num_quotients_; ++w) {
      for (uint64_t word = occupieds_.Word(w); word != 0; word &= word - 1) {
        const uint64_t q = w * 64 + CountTrailingZeros(word);
        if (pos < q) pos = q;
        do {
          fn(q, values_.Get(pos));
        } while (!runends_.Get(pos++));
      }
    }
  }

  /// Hints the cache lines a probe of quotient `q` touches first: its
  /// occupieds and runends words, its block offset and its home payload.
  void Prefetch(uint64_t q, bool for_write = false) const {
    occupieds_.PrefetchBit(q, for_write);
    runends_.PrefetchBit(q, for_write);
    PrefetchRead(&offsets_[q / kBlockSlots]);
    values_.Prefetch(q, 1, for_write);
  }

  /// 2 metadata bits + `value_bits` per slot, plus 16/64 bits of offset
  /// per block: the "2.125-ish" accounting of the paper.
  size_t SpaceBits() const {
    return total_slots_ * (2 + value_bits_) + offsets_.size() * 16;
  }

  /// Structural self-check for the test suite: the occupieds/runends
  /// bijection, offset freshness and the used-slot count.
  bool CheckInvariants() const;

  /// Serializes the four structural members (occupieds, runends, values,
  /// offsets) — the caller frames them with its own header. Byte-for-byte
  /// the layout Rsqf snapshots have always used.
  bool SaveBody(std::ostream& os) const;
  /// Parses a SaveBody stream into `*out`, validating every size against
  /// the expected geometry and the metadata against the bijection (the
  /// stored offsets must equal a fresh recomputation) before committing.
  /// `*out` is untouched on failure.
  static bool LoadBody(std::istream& is, int q_bits, int value_bits,
                       RsqfTable* out);

  static constexpr double kMaxLoadFactor = 0.94;
  static constexpr uint64_t kBlockSlots = 64;
  static constexpr uint64_t kNone = ~uint64_t{0};
  /// First word of every family payload whose layout moved onto this
  /// table ("RSQF1"): a frame written by the retired 3-bit engine fails
  /// this check and is rejected without being parsed further.
  static constexpr uint64_t kLayoutMarker = 0x3146515352;

 private:
  // Global position of the k-th (1-indexed) runend bit at position >=
  // `from`. Returns kNone if none.
  uint64_t SelectRunendAfter(uint64_t from, uint64_t k) const;
  // Runend of the last occupied quotient <= q, or kNone if none.
  uint64_t RunEndUpTo(uint64_t q) const;
  // First occupied quotient in [from, to], or kNone.
  uint64_t NextOccupied(uint64_t from, uint64_t to) const;
  // Shared by InsertValue and InsertAt: `end` is the current end of q's
  // run (kNone when q is unoccupied).
  bool ShiftInsert(uint64_t q, uint64_t pos, uint64_t value, uint64_t end);
  void RecomputeOffsets(uint64_t first_block, uint64_t last_block);
  // Walks every run once, checking the occupieds/runends bijection, and
  // rebuilds the block offsets and used-slot count from the metadata.
  // Returns nullptr when consistent, else the first violation.
  const char* Rebuild(std::vector<uint16_t>* offsets, uint64_t* used) const;

  int q_bits_;
  int value_bits_;
  uint64_t num_quotients_;
  uint64_t total_slots_;  // num_quotients_ + slack (no wraparound).
  uint64_t used_slots_ = 0;
  BitVector occupieds_;
  BitVector runends_;
  CompactVector values_;
  std::vector<uint16_t> offsets_;  // Per block of 64 quotient slots.
};

/// Rank-and-Select Quotient Filter: the insert-and-lookup family on the
/// RsqfTable substrate, with its own seed and snapshot format. Keeps runs
/// unsorted (append at run end); deletes live in QuotientFilter, counting
/// in CountingQuotientFilter, ranges in the Memento filter — all on the
/// same table.
class Rsqf : public Filter {
 public:
  Rsqf(int q_bits, int r_bits, uint64_t hash_seed = 0x45F);

  static Rsqf ForCapacity(uint64_t n, double fpr);

  using Filter::Contains;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kSemiDynamic; }
  std::string_view Name() const override { return "rsqf"; }

  double LoadFactor() const override {
    return static_cast<double>(num_keys_) / table_.num_quotients();
  }
  int r_bits() const { return r_bits_; }

  /// Structural self-check for the test suite.
  bool CheckInvariants() const { return table_.CheckInvariants(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

  static constexpr double kMaxLoadFactor = RsqfTable::kMaxLoadFactor;
  static constexpr uint64_t kBlockSlots = RsqfTable::kBlockSlots;

 private:
  int r_bits_;
  uint64_t hash_seed_;
  uint64_t num_keys_ = 0;
  RsqfTable table_;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_RSQF_H_
