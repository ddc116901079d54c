#ifndef BBF_BENCH_BENCH_UTIL_H_
#define BBF_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harness (DESIGN.md §4). Each bench
// binary regenerates one experiment's table; EXPERIMENTS.md records the
// paper-claim vs measured comparison.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/filter.h"

namespace bbf::bench {

/// The traditional one-key-at-a-time probe loop; returns the hit count.
inline uint64_t ScalarLookup(const Filter& f,
                             const std::vector<uint64_t>& queries) {
  uint64_t hits = 0;
  for (uint64_t k : queries) hits += f.Contains(k);
  return hits;
}

/// Measured false-positive rate of a point filter over `negatives`.
inline double MeasureFpr(const Filter& f,
                         const std::vector<uint64_t>& negatives) {
  return static_cast<double>(ScalarLookup(f, negatives)) / negatives.size();
}

/// Calls ContainsMany over consecutive sub-batches of `batch` keys — the
/// two-pass pipelined pattern a caller with a bounded reorder window uses.
inline uint64_t BatchedLookup(const Filter& f,
                              const std::vector<uint64_t>& queries,
                              size_t batch, uint8_t* out) {
  for (size_t base = 0; base < queries.size(); base += batch) {
    const size_t n = std::min(batch, queries.size() - base);
    f.ContainsMany({queries.data() + base, n}, out + base);
  }
  uint64_t hits = 0;
  for (size_t i = 0; i < queries.size(); ++i) hits += out[i];
  return hits;
}

/// Wall-clock seconds of `fn()`.
template <typename Fn>
double Seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Best (minimum) wall-clock seconds of `fn()` over `reps` runs, with
/// `setup()` run untimed before each. The minimum strips co-tenant noise
/// on a shared machine from both sides of a comparison equally.
template <typename Setup, typename Fn>
double BestSeconds(int reps, Setup&& setup, Fn&& fn) {
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    setup();
    best = std::min(best, Seconds(fn));
  }
  return best;
}

template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  return BestSeconds(reps, [] {}, fn);
}

/// Keys and negatives interleaved one for one: realistic for join
/// pre-filters and LSM point reads, and exercises both the hit and miss
/// probe paths.
inline std::vector<uint64_t> MixedQueries(
    const std::vector<uint64_t>& keys, const std::vector<uint64_t>& negatives) {
  std::vector<uint64_t> q;
  q.reserve(keys.size() + negatives.size());
  for (size_t i = 0; i < keys.size() || i < negatives.size(); ++i) {
    if (i < keys.size()) q.push_back(keys[i]);
    if (i < negatives.size()) q.push_back(negatives[i]);
  }
  return q;
}

/// Million operations per second.
inline double Mops(uint64_t ops, double seconds) {
  return seconds <= 0 ? 0 : ops / seconds / 1e6;
}

}  // namespace bbf::bench

#endif  // BBF_BENCH_BENCH_UTIL_H_
