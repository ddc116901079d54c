#ifndef BBF_EXPANDABLE_TAFFY_FILTER_H_
#define BBF_EXPANDABLE_TAFFY_FILTER_H_

#include <cstdint>

#include "core/filter.h"
#include "quotient/rsqf.h"

namespace bbf {

/// Taffy/InfiniFilter-style expandable filter (§2.2, DESIGN.md §6.2):
/// an RsqfTable whose slots hold *variable-length* fingerprints,
/// self-delimited by a unary marker bit (value = 1 << len | bits). On
/// expansion the table doubles and every fingerprint donates its lowest
/// bit to the quotient — exactly the bit a fresh hash would place there —
/// so no original keys are needed. Keys inserted after an expansion get
/// full-length fingerprints, so, unlike the plain bit-sacrifice scheme,
/// the false-positive rate grows only *linearly* with the number of
/// doublings (InfiniFilter's key property) instead of doubling each time.
///
/// Entries whose fingerprints are exhausted become "void" and are
/// duplicated into both children on expansion (no false negatives, slight
/// space growth); InfiniFilter's secondary structure is simplified away.
/// Deletes match the longest stored fingerprint prefix.
class TaffyFilter : public Filter {
 public:
  /// Starts with 2^q_bits slots; fresh fingerprints get
  /// `fingerprint_bits` bits (also the slot field width minus the
  /// delimiter bit).
  TaffyFilter(int q_bits, int fingerprint_bits, uint64_t hash_seed = 0x7A);

  using Filter::Contains;
  using Filter::Erase;
  using Filter::Insert;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  bool Erase(HashedKey key) override;
  size_t SpaceBits() const override { return table_.SpaceBits(); }
  uint64_t NumKeys() const override { return num_keys_; }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "taffy"; }

  int expansions() const { return expansions_; }
  int q_bits() const { return table_.q_bits(); }
  double LoadFactor() const override { return table_.LoadFactor(); }
  const RsqfTable& table() const { return table_; }

  static constexpr double kMaxLoadFactor = 0.90;

  bool SavePayload(std::ostream& os) const override;
  bool LoadPayload(std::istream& is) override;

 private:
  // Fingerprint encoding within a slot: (1 << len) | bits, so 0 never
  // appears and void entries (len 0) encode as 1.
  static uint64_t Encode(uint64_t bits, int len) {
    return (uint64_t{1} << len) | bits;
  }
  static int LengthOf(uint64_t encoded);
  static uint64_t BitsOf(uint64_t encoded);

  void KeyParts(HashedKey key, uint64_t* fq, uint64_t* fp) const;
  bool InsertEncoded(uint64_t fq, uint64_t encoded);
  void Expand();

  RsqfTable table_;
  int fingerprint_bits_;
  uint64_t hash_seed_;
  uint64_t num_keys_ = 0;
  int expansions_ = 0;
};

}  // namespace bbf

#endif  // BBF_EXPANDABLE_TAFFY_FILTER_H_
