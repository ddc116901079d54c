#include "core/fpr_estimator.h"

#include <algorithm>
#include <cmath>

namespace bbf {

void ObservedFprEstimator::RecordInsert(HashedKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  present_.insert(key.value());
}

void ObservedFprEstimator::RecordInserts(
    std::span<const uint64_t> mixed_values) {
  if (mixed_values.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t v : mixed_values) present_.insert(v);
}

void ObservedFprEstimator::RecordErase(HashedKey key) {
  std::lock_guard<std::mutex> lock(mu_);
  present_.erase(key.value());
}

void ObservedFprEstimator::RecordLookup(HashedKey key, bool filter_positive) {
  std::lock_guard<std::mutex> lock(mu_);
  if (present_.count(key.value())) {
    ++positive_lookups_;
    if (!filter_positive) ++false_negatives_;
  } else {
    ++negative_lookups_;
    if (filter_positive) {
      ++false_positives_;
      // Repeat sketch. In-domain mixes have their low 6 bits zero, so
      // the slot index comes from the bits above the domain mask.
      SketchSlot& slot =
          sketch_[(key.value() >> 6) & (kSketchSlots - 1)];
      if (slot.count == 0) {
        slot.mix = key.value();
        slot.count = 1;
      } else if (slot.mix == key.value()) {
        ++slot.count;
      } else {
        --slot.count;
      }
    }
  }
}

void ObservedFprEstimator::ResetObservations() {
  std::lock_guard<std::mutex> lock(mu_);
  negative_lookups_ = 0;
  false_positives_ = 0;
  positive_lookups_ = 0;
  false_negatives_ = 0;
  sketch_.fill(SketchSlot{});
}

ObservedFprEstimator::Snapshot ObservedFprEstimator::Snap() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.tracked_keys = present_.size();
  snap.negative_lookups = negative_lookups_;
  snap.false_positives = false_positives_;
  snap.positive_lookups = positive_lookups_;
  snap.false_negatives = false_negatives_;
  if (negative_lookups_ > 0) {
    const double n = static_cast<double>(negative_lookups_);
    const double p = static_cast<double>(false_positives_) / n;
    snap.observed_fpr = p;
    // 95% Wilson score interval: robust at the small counts and extreme
    // proportions an FPR estimator lives at (the Wald interval collapses
    // to [p, p] when no FP has been seen yet).
    const double z = 1.959964;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    snap.ci_low = std::max(0.0, center - half);
    snap.ci_high = std::min(1.0, center + half);
  }
  for (const SketchSlot& slot : sketch_) {
    snap.max_fp_repeats = std::max(snap.max_fp_repeats, slot.count);
    if (slot.count >= kRepeatHot) ++snap.fp_repeated_keys;
  }
  return snap;
}

}  // namespace bbf
