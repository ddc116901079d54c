#ifndef BBF_QUOTIENT_QUOTIENT_MAPLET_H_
#define BBF_QUOTIENT_QUOTIENT_MAPLET_H_

#include <cstdint>
#include <vector>

#include "core/key.h"
#include "quotient/rsqf.h"

namespace bbf {

/// Quotient-filter maplet (§2.4): each RsqfTable slot stores a small value
/// alongside the remainder, packed as `(remainder << v) | value`. A
/// positive lookup returns the target key's value plus, with probability
/// epsilon per colliding fingerprint, a few arbitrary extras (expected
/// positive result size 1 + eps); a negative lookup returns eps extras in
/// expectation. The application disambiguates — the SplinterDB/Chucky/
/// Mantis pattern.
///
/// Multiple inserts of the same key accumulate multiple values (Mantis
/// maps each k-mer to a *collection* of experiments this way).
class QuotientMaplet {
 public:
  QuotientMaplet(int q_bits, int r_bits, int value_bits,
                 uint64_t hash_seed = 0xBD);

  static QuotientMaplet ForCapacity(uint64_t n, double fpr, int value_bits);

  /// Associates `value` (low value_bits) with `key`.
  /// Returns false when full.
  bool Insert(HashedKey key, uint64_t value);
  bool Insert(uint64_t key, uint64_t value) {
    return Insert(HashedKey(key), value);
  }

  /// All values whose fingerprints match `key` (possibly empty).
  std::vector<uint64_t> Lookup(HashedKey key) const;
  std::vector<uint64_t> Lookup(uint64_t key) const {
    return Lookup(HashedKey(key));
  }

  bool Contains(HashedKey key) const { return !Lookup(key).empty(); }
  bool Contains(uint64_t key) const { return Contains(HashedKey(key)); }

  /// Removes one (key, value) association; value must match exactly.
  bool Erase(HashedKey key, uint64_t value);
  bool Erase(uint64_t key, uint64_t value) {
    return Erase(HashedKey(key), value);
  }

  /// Bit-sacrifice doubling (§2.2, RsqfTable::Expand): twice the
  /// quotients, one remainder bit fewer; values ride along untouched.
  /// Returns false once r == 1 or the table cannot grow, leaving the
  /// maplet unchanged.
  bool Expand();

  size_t SpaceBits() const { return table_.SpaceBits(); }
  uint64_t NumEntries() const { return num_entries_; }
  double LoadFactor() const { return table_.LoadFactor(); }
  int q_bits() const { return table_.q_bits(); }
  int r_bits() const { return r_bits_; }
  int value_bits() const { return value_bits_; }
  /// Read access to the physical table (tests).
  const RsqfTable& table() const { return table_; }

  /// Raw snapshot payload (framing is the caller's job; the Maplet
  /// adapters wrap these in checksummed frames).
  bool SavePayload(std::ostream& os) const;
  bool LoadPayload(std::istream& is);

 private:
  void Fingerprint(HashedKey key, uint64_t* fq, uint64_t* fr) const {
    table_.Split(key.Derive(hash_seed_), r_bits_, fq, fr);
  }

  RsqfTable table_;
  int r_bits_;
  int value_bits_;
  uint64_t hash_seed_;
  uint64_t num_entries_ = 0;
};

}  // namespace bbf

#endif  // BBF_QUOTIENT_QUOTIENT_MAPLET_H_
