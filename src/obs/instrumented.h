#ifndef BBF_OBS_INSTRUMENTED_H_
#define BBF_OBS_INSTRUMENTED_H_

#include <memory>
#include <span>

#include "core/filter.h"
#include "obs/metrics.h"

namespace bbf::obs {

/// Opt-in observability decorator (DESIGN.md §11): wraps any Filter and
/// maintains a FilterMetrics block — op counters, batch-size histogram,
/// sampled lookup latency, and the observed-FPR estimator — while
/// attaching itself as the inner filter's MetricsSink so family-level
/// events (kick chains, probe scans, expansions, adapt repairs) land in
/// the same block. Because the decorator wraps the Filter interface and
/// the sink rides the base class, every registered family reports without
/// per-family wrapper code.
///
/// Overhead budget: <= 5% on the batched lookup hot path (bench_obs, E22).
/// The costly pieces are therefore sampled — latency via steady_clock on
/// every 64th scalar lookup and every 16th ContainsMany call (a timed
/// call records its per-key average), the FPR estimator via a
/// deterministic 1-in-64 key-domain sample, checked on every scalar op
/// but only every 16th batch position. Counters and the batch-size
/// histogram are exact.
///
/// Thread-safe to the same degree as the wrapped filter: all metric
/// updates are relaxed atomics or a sampled mutex, so wrapping a
/// ShardedFilter keeps the whole stack concurrent.
class InstrumentedFilter : public Filter, public AdaptiveHook {
 public:
  /// Takes ownership of `inner` and attaches the metrics block as its
  /// sink. `configured_epsilon` is exported next to the observed FPR
  /// (0 = unknown).
  explicit InstrumentedFilter(std::unique_ptr<Filter> inner,
                              double configured_epsilon = 0.0);
  ~InstrumentedFilter() override;

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;
  using Filter::InsertMany;
  using AdaptiveHook::ReportFalsePositive;

  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override;
  size_t InsertMany(std::span<const HashedKey> keys) override;
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;

  size_t SpaceBits() const override { return inner_->SpaceBits(); }
  uint64_t NumKeys() const override { return inner_->NumKeys(); }
  double LoadFactor() const override { return inner_->LoadFactor(); }
  FilterClass Class() const override { return inner_->Class(); }
  /// The inner family's name: snapshots written through the decorator are
  /// byte-compatible with the bare filter's.
  std::string_view Name() const override { return inner_->Name(); }
  bool Save(std::ostream& os) const override { return inner_->Save(os); }
  bool Load(std::istream& is) override { return inner_->Load(is); }

  /// Forwards to the inner filter *and* the inner generations if the
  /// inner filter propagates; the decorator's own metrics stay attached —
  /// the last attachment wins, so only use this to chain custom sinks
  /// when the default instrumentation is not wanted.
  void AttachMetricsSink(MetricsSink* sink) override;

  /// Counts the report and forwards when the inner filter is adaptive;
  /// returns false (un-adapted) otherwise. Adapt *successes* are counted
  /// by the family itself through MetricsSink::OnAdapt.
  bool ReportFalsePositive(HashedKey key) override;
  bool adaptive() const { return hook_ != nullptr; }

  const FilterMetrics& metrics() const { return metrics_; }
  FilterMetrics& metrics() { return metrics_; }
  const Filter& inner() const { return *inner_; }
  Filter& inner() { return *inner_; }

  /// Full exporter-ready snapshot: the metrics block plus live gauges
  /// (load factor, keys, space) and — when the inner filter is a
  /// ShardedFilter — the aggregated Stats() surface (saturation-policy
  /// outcome counters, generation and saturation gauges).
  MetricsSnapshot Snapshot() const;

  /// Latency is clocked on every kLatencySampleEvery-th scalar lookup.
  static constexpr uint64_t kLatencySampleEvery = 64;
  /// ...and on every kBatchLatencySampleEvery-th tick of ContainsMany,
  /// which shares the scalar tick (a fresh filter's first call is timed).
  static constexpr uint64_t kBatchLatencySampleEvery = 16;
  /// Batch positions checked against the FPR sample domain.
  static constexpr size_t kBatchFprStride = 16;
  /// In-domain keys of an InsertMany call are handed to the estimator in
  /// stack chunks of this many (one lock per chunk).
  static constexpr size_t kInsertSampleChunk = 64;

 private:
  std::unique_ptr<Filter> inner_;
  AdaptiveHook* hook_ = nullptr;  // Non-null when inner_ is adaptive.
  mutable FilterMetrics metrics_;
  mutable PaddedCounter op_tick_;  // Drives latency sampling.
};

}  // namespace bbf::obs

#endif  // BBF_OBS_INSTRUMENTED_H_
