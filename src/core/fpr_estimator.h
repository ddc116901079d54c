#ifndef BBF_CORE_FPR_ESTIMATOR_H_
#define BBF_CORE_FPR_ESTIMATOR_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_set>

#include "core/key.h"

namespace bbf {

/// Live false-positive-rate estimator (§2, §2.3): tracks exact ground
/// truth for a deterministic 1-in-64 sample of the key space, so a
/// production filter can report its *observed* FPR next to the configured
/// epsilon without storing every key.
///
/// The sample domain is a function of the key alone — the low bits of
/// the canonical mix — so inserts and lookups agree on membership in the
/// domain, and the test costs one AND on the batched-insert hot path
/// (a fresh Derive per key measurably dents Bloom-speed inserts).
/// Families never consume raw mix bits (they use Derive streams, which
/// decorrelate from any fixed bit pattern of the mix), and the layers
/// that do slice value() directly — shard routing, batch grouping — use
/// the TOP bits, so the low-bit domain stays uncorrelated with both
/// filter placement and routing. For an in-domain lookup the estimator
/// knows the truth exactly: filter-positive on a key never recorded as
/// inserted is a false positive; filter-negative on a recorded key is a
/// false negative (the cardinal sin — exported so it can be alerted on,
/// expected to stay 0).
///
/// Lives in core (not obs) because ShardedFilter hosts one estimator per
/// shard when migration instrumentation is enabled; the obs layer's
/// FilterMetrics embeds the same class for whole-filter estimates.
///
/// Caveats (documented, deliberate): after a partial batch insert every
/// in-domain key of the batch is recorded as inserted, which removes any
/// rejected keys from the negative pool (conservative: never inflates the
/// FPR estimate). Erasing one copy of a multiply-inserted key removes its
/// ground truth, so erase-heavy multiset workloads can overcount FPs.
class ObservedFprEstimator {
 public:
  static constexpr uint64_t kDomainMask = 63;  // 1-in-64 sampling.

  /// Slots in the repeated-false-positive sketch. Each slot holds one
  /// candidate mix plus a saturating vote count (space-saving style:
  /// a colliding FP decrements; an empty slot is claimed). Adversarial
  /// repeat workloads hammer a handful of keys, so a small fixed table
  /// finds them; a benign FPR spread across the key space never keeps a
  /// slot's count high.
  static constexpr size_t kSketchSlots = 256;
  /// A slot count at or above this marks the key as an adversarial
  /// repeat (exported as `fp_repeated_keys`).
  static constexpr uint64_t kRepeatHot = 8;

  static bool InDomain(HashedKey key) {
    return (key.value() & kDomainMask) == 0;
  }

  /// Records an in-domain key as present. Call only for InDomain keys.
  void RecordInsert(HashedKey key);
  /// Bulk form for batch inserts: one lock per call (per-key locking was
  /// the largest single instrumentation cost on the batched insert path).
  void RecordInserts(std::span<const uint64_t> mixed_values);
  /// Drops an in-domain key's ground truth after a successful erase.
  void RecordErase(HashedKey key);
  /// Scores an in-domain membership answer against ground truth.
  void RecordLookup(HashedKey key, bool filter_positive);

  /// Clears the lookup counters and the repeat sketch but keeps the
  /// ground-truth set: after an online migration the successor filter's
  /// FPR starts from a clean slate while insert history stays valid.
  void ResetObservations();

  struct Snapshot {
    uint64_t tracked_keys = 0;       // Current ground-truth set size.
    uint64_t negative_lookups = 0;   // In-domain lookups of absent keys.
    uint64_t false_positives = 0;    // Filter said yes on an absent key.
    uint64_t positive_lookups = 0;   // In-domain lookups of present keys.
    uint64_t false_negatives = 0;    // Filter said no on a present key.
    /// false_positives / negative_lookups; 0 when no negatives were seen.
    double observed_fpr = 0.0;
    /// 95% Wilson score interval on the FP proportion. Both 0 until a
    /// negative lookup lands. The Tuner acts on ci_low (FPR provably
    /// above budget) rather than the point estimate, so a handful of
    /// unlucky samples can't trigger a migration.
    double ci_low = 0.0;
    double ci_high = 0.0;
    /// Highest vote count in the repeat sketch — how often the single
    /// worst key has re-produced a false positive.
    uint64_t max_fp_repeats = 0;
    /// Sketch slots at or above kRepeatHot: distinct keys being replayed
    /// against the filter.
    uint64_t fp_repeated_keys = 0;
  };
  Snapshot Snap() const;

 private:
  struct SketchSlot {
    uint64_t mix = 0;
    uint64_t count = 0;
  };

  mutable std::mutex mu_;
  std::unordered_set<uint64_t> present_;  // value() of sampled inserts.
  uint64_t negative_lookups_ = 0;
  uint64_t false_positives_ = 0;
  uint64_t positive_lookups_ = 0;
  uint64_t false_negatives_ = 0;
  std::array<SketchSlot, kSketchSlots> sketch_{};
};

}  // namespace bbf

#endif  // BBF_CORE_FPR_ESTIMATOR_H_
