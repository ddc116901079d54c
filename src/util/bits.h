#ifndef BBF_UTIL_BITS_H_
#define BBF_UTIL_BITS_H_

#include <bit>
#include <cstdint>

namespace bbf {

/// Number of set bits in `x`. Without the POPCNT instruction the compiler
/// lowers std::popcount to a libgcc call, so the baseline build uses an
/// inline SWAR count instead (rank/select runs it on every quotient probe).
inline int Popcount(uint64_t x) {
#if defined(__POPCNT__) || !(defined(__GNUC__) || defined(__clang__))
  return std::popcount(x);
#else
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
#endif
}

/// Index of the lowest set bit; undefined for x == 0.
inline int CountTrailingZeros(uint64_t x) { return std::countr_zero(x); }

/// Number of leading zero bits; undefined for x == 0.
inline int CountLeadingZeros(uint64_t x) { return std::countl_zero(x); }

/// Index of the highest set bit; undefined for x == 0.
inline int HighestSetBit(uint64_t x) { return 63 - std::countl_zero(x); }

/// Number of bits needed to represent `x` (0 for x == 0).
inline int BitWidth(uint64_t x) { return std::bit_width(x); }

/// A mask with the low `n` bits set, for n in [0, 64].
inline uint64_t LowMask(int n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/// Position (0-based, from LSB) of the (k+1)-th set bit of `x`.
/// Requires k < Popcount(x). Broadword select: byte popcounts and their
/// prefix sums locate the byte holding the bit, then at most seven clears
/// finish inside that byte.
inline int SelectInWord(uint64_t x, int k) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHighs = 0x8080808080808080ULL;
  uint64_t s = x - ((x >> 1) & 0x5555555555555555ULL);
  s = (s & 0x3333333333333333ULL) + ((s >> 2) & 0x3333333333333333ULL);
  s = (s + (s >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  const uint64_t prefix = s * kOnes;  // Byte j: set bits in bytes 0..j.
  // Bytes whose prefix is <= k all precede the target byte.
  const uint64_t le =
      ((static_cast<uint64_t>(k) * kOnes | kHighs) - prefix) & kHighs;
  const int byte = static_cast<int>(((le >> 7) * kOnes) >> 56);
  const int shift = byte * 8;
  k -= static_cast<int>(((prefix << 8) >> shift) & 0xFF);
  uint64_t y = x >> shift;
  for (; k > 0; --k) y &= y - 1;  // Clear the byte's k lowest set bits.
  return shift + CountTrailingZeros(y);
}

/// Next power of two >= x (returns 1 for x == 0).
inline uint64_t NextPow2(uint64_t x) { return x <= 1 ? 1 : std::bit_ceil(x); }

/// True if x is a power of two (and nonzero).
inline bool IsPow2(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Lemire's fast alternative to `h % n` for uniformly distributed h.
inline uint64_t FastRange64(uint64_t h, uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(h) * static_cast<__uint128_t>(n)) >> 64);
}

/// Software prefetch hints for the batch query paths: hash a batch of keys
/// up front, request every target cache line, then probe — hiding DRAM
/// latency behind the remaining hash work. No-ops on compilers without
/// `__builtin_prefetch`.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

inline void PrefetchWrite(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace bbf

#endif  // BBF_UTIL_BITS_H_
