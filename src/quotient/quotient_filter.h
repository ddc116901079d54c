#ifndef BBF_QUOTIENT_QUOTIENT_FILTER_H_
#define BBF_QUOTIENT_QUOTIENT_FILTER_H_

#include <cstdint>
#include <vector>

#include "core/filter.h"
#include "quotient/rsqf.h"

namespace bbf {

/// Quotient filter [Bender et al. 2012] (§2.1): a p-bit fingerprint is
/// split into a q-bit quotient (the slot index, stored implicitly) and an
/// r-bit remainder (stored explicitly); runs of same-quotient remainders
/// stay contiguous, shifted right as needed. The slots live in the
/// rank-and-select RsqfTable, i.e. n lg(1/eps) + 2.25n bits at full load.
///
/// Fully dynamic: inserts, deletes, and multiset semantics (duplicate
/// inserts are stored as duplicate remainders; Count reports them).
class QuotientFilter : public Filter {
 public:
  /// 2^q_bits slots, r_bits-bit remainders. FPR ~ load * 2^-r.
  QuotientFilter(int q_bits, int r_bits, uint64_t hash_seed = 0xBB);

  /// A filter sized for `n` keys at false-positive rate `fpr` (at the
  /// default max load factor).
  static QuotientFilter ForCapacity(uint64_t n, double fpr);

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;
  using Filter::InsertMany;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  /// Batch paths: fingerprint a tile of keys, prefetch each quotient's
  /// metadata, offset and remainder words, then walk the runs.
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override;
  size_t InsertMany(std::span<const HashedKey> keys) override;
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "quotient"; }

  double LoadFactor() const override { return table_.LoadFactor(); }
  int q_bits() const { return table_.q_bits(); }
  int r_bits() const { return r_bits_; }

  /// Splits the fingerprint of `key` into (quotient, remainder).
  void Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const {
    table_.Split(key.Derive(hash_seed_), r_bits_, fq, fr);
  }

  /// Bit-sacrifice doubling (§2.2, RsqfTable::Expand): twice the
  /// quotients, one remainder bit fewer, so the FPR doubles. Returns false
  /// once r == 1 or the table cannot grow; the filter is then unchanged.
  bool Expand();

  /// Read access to the physical table (tests, invariant checks).
  const RsqfTable& table() const { return table_; }

  /// Snapshot payload (framed by Filter::Save/Load). A failed load leaves
  /// the filter in its prior state.
  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

  static constexpr double kMaxLoadFactor = RsqfTable::kMaxLoadFactor;

 private:
  // Contains body for a pre-split fingerprint; shared by Contains and
  // ContainsMany.
  bool ContainsFingerprint(uint64_t fq, uint64_t fr) const;

  RsqfTable table_;
  int r_bits_;
  uint64_t hash_seed_;
  uint64_t num_keys_ = 0;
};

/// Counting quotient filter (§2.6): multiset counts embedded *inside* the
/// run as variable-length counters. Each RsqfTable slot holds r+1 bits,
/// `(x << 1) | is_digit`: a remainder slot is followed by the base-2^r
/// digits of (count - 1), each flagged as a digit — see DESIGN.md §6.1. A
/// key with count c uses its remainder slot plus ceil(log_{2^r}(c)) digit
/// slots, so hot keys in a skewed multiset cost O(log c) slots instead of
/// c slots.
class CountingQuotientFilter : public Filter {
 public:
  CountingQuotientFilter(int q_bits, int r_bits, uint64_t hash_seed = 0xBC);

  static CountingQuotientFilter ForCapacity(uint64_t n, double fpr);

  using Filter::Contains;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override { return Count(key) > 0; }
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "counting-quotient"; }

  double LoadFactor() const override { return table_.LoadFactor(); }
  uint64_t num_used_slots() const { return table_.num_used_slots(); }

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

 private:
  void Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const {
    table_.Split(key.Derive(hash_seed_), r_bits_, fq, fr);
  }
  // Locates the remainder slot for (fq, fr) in the run of fq. Returns
  // false if absent; otherwise *pos is the slot and *end the run end.
  bool FindRemainderSlot(uint64_t fq, uint64_t fr, uint64_t* pos,
                         uint64_t* end) const;
  // Reads the counter digits in (pos, end]; returns the count (>= 1) and
  // the digit slot positions in *digits.
  uint64_t ReadCount(uint64_t pos, uint64_t end,
                     std::vector<uint64_t>* digits) const;

  RsqfTable table_;
  int r_bits_;
  uint64_t hash_seed_;
  uint64_t num_keys_ = 0;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_QUOTIENT_FILTER_H_
