#ifndef BBF_CORE_SHARDED_FILTER_H_
#define BBF_CORE_SHARDED_FILTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter.h"
#include "core/fpr_estimator.h"
#include "core/shard_lock.h"

namespace bbf {

/// One acked mutation in a shard's migration journal. Filters cannot
/// enumerate their keys, so online migration (snapshot-drain-replay,
/// DESIGN.md §15) rebuilds a successor by replaying the journal;
/// HashedKey::FromMix(mix) reconstitutes the exact key the families saw.
struct FilterJournalOp {
  uint64_t mix = 0;
  uint8_t erase = 0;  // 0 = insert, 1 = erase.
};

/// What a shard does once its newest generation crosses the load
/// threshold (DESIGN.md §9). The paper's §2.2 expansion strategies,
/// recast as serving policies.
enum class SaturationPolicy : uint8_t {
  /// Stop admitting: Insert reports kRejectedFull, state is untouched.
  /// For callers that would rather shed load than degrade FPR.
  kReject,
  /// Scalable-Bloom-style chaining: mount a fresh generation behind the
  /// saturated one and insert there. Queries probe every generation, so
  /// each extra generation adds one probe and one generation's FPR —
  /// max_generations is the FPR/latency budget.
  kChain,
  /// Lean on the family's native expansion (taffy, scalable-bloom,
  /// expanding-quotient, chained-quotient): keep inserting into the same
  /// filter and let it restructure itself. Rejects only once the family
  /// itself is exhausted.
  kExpandInPlace,
};

/// Per-shard degradation knobs for ShardedFilter.
struct SaturationConfig {
  SaturationPolicy policy = SaturationPolicy::kChain;
  /// Newest-generation LoadFactor at which the policy engages. Below the
  /// family's own hard limit so degradation is deliberate, not forced.
  double load_threshold = 0.85;
  /// Capacity multiplier for each chained generation (kChain only).
  double growth = 2.0;
  /// Hard cap on generations per shard (kChain only). Total shard FPR is
  /// bounded by max_generations * per-generation FPR.
  int max_generations = 4;

  /// Generations affordable under a total FPR budget when every chained
  /// generation is built at `per_generation_fpr` (the additive union
  /// bound on the chain's false-positive probability).
  static int GenerationsForFprBudget(double per_generation_fpr,
                                     double fpr_budget);
};

/// Thread scaling (§1, feature 6): a hash-sharded wrapper that turns any
/// dynamic filter into a concurrent one. Keys partition across S
/// independent shards by high hash bits; each shard is guarded by its own
/// ShardLock, whose readers write only a per-thread cache line. Queries on
/// different cores therefore share no written memory and scale with
/// threads, while inserts contend only within a shard — the standard
/// recipe behind concurrent CQF deployments.
///
/// Overload behaviour: each shard is a chain of generations (usually one).
/// When the newest generation crosses the configured load threshold the
/// shard degrades per SaturationConfig instead of silently returning
/// false; InsertWithStatus reports which path each key took, and Stats()
/// exposes per-shard occupancy so callers can rebalance hot shards.
class ShardedFilter : public Filter {
 public:
  using ShardFactory =
      std::function<std::unique_ptr<Filter>(uint64_t shard_capacity)>;

  /// `num_shards` should be a power of two near the expected thread count;
  /// `factory` builds one shard sized for `expected_keys / num_shards`.
  /// Default saturation policy is kChain — the filter keeps serving past
  /// capacity at a bounded FPR cost.
  ShardedFilter(uint64_t expected_keys, int num_shards, ShardFactory factory);
  ShardedFilter(uint64_t expected_keys, int num_shards, ShardFactory factory,
                const SaturationConfig& config);

  /// Structured insert: kAccepted below the threshold, kExpanded when the
  /// key was only admitted by chaining/expanding a generation,
  /// kRejectedFull when the policy refused it (key NOT queryable).
  InsertOutcome InsertWithStatus(HashedKey key);
  InsertOutcome InsertWithStatus(uint64_t key) {
    return InsertWithStatus(HashedKey(key));
  }
  InsertOutcome InsertWithStatus(std::string_view key) {
    return InsertWithStatus(HashedKey(key));
  }

  /// Batched structured insert — the serving-layer twin of InsertMany
  /// (DESIGN.md §14): writes InsertWithStatus's outcome for keys[i] to
  /// out[i], equivalent to calling InsertWithStatus in order. Keys are
  /// grouped by shard first so each shard lock is taken once per batch
  /// (not once per key); within a shard the per-key policy path runs so
  /// every outcome is exact — a network server acks precisely the keys
  /// that are queryable, which the count-only InsertMany cannot promise
  /// when a family refuses keys mid-batch.
  void InsertManyWithStatus(std::span<const HashedKey> keys,
                            InsertOutcome* out);

  using Filter::Contains;
  using Filter::ContainsMany;
  using Filter::Count;
  using Filter::Erase;
  using Filter::Insert;
  using Filter::InsertMany;

  /// Accepted(InsertWithStatus(key)) — kept for the Filter contract.
  bool Insert(HashedKey key) override;
  bool Contains(HashedKey key) const override;
  /// Batch paths group pre-hashed keys by shard first, so a batch of B
  /// keys is hashed exactly once (by the Filter wrappers), takes each
  /// shard lock at most once (~num_shards acquisitions instead of B) and
  /// hands every shard one contiguous sub-batch — which flows into the
  /// shard filter's own prefetch-pipelined batch path. Sub-batches that
  /// fit under the load threshold go straight to the newest generation's
  /// InsertMany; near saturation the per-key policy path takes over.
  void ContainsMany(std::span<const HashedKey> keys,
                    uint8_t* out) const override;
  size_t InsertMany(std::span<const HashedKey> keys) override;
  bool Erase(HashedKey key) override;
  uint64_t Count(HashedKey key) const override;
  size_t SpaceBits() const override;
  uint64_t NumKeys() const override;
  /// Load of the hottest shard's newest generation — the binding
  /// constraint for admission.
  double LoadFactor() const override;
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "sharded"; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const SaturationConfig& saturation_config() const { return config_; }

  /// Propagates the sink to every live generation (under each shard's
  /// exclusive lock) and to generations created later by chaining or
  /// quarantine rebuilds, so family-level events (kick chains, probe
  /// scans) from all shards land in one metrics block. Chaining a
  /// generation additionally reports MetricsSink::OnExpansion.
  void AttachMetricsSink(MetricsSink* sink) override;

  /// Point-in-time occupancy and outcome counters for one shard. Counters
  /// reset on Load (snapshots persist structure, not serving history).
  struct ShardStats {
    uint64_t num_keys = 0;
    double load_factor = 0.0;  // Newest generation.
    size_t generations = 1;
    uint64_t accepted = 0;   // Inserts stored below the threshold.
    uint64_t expanded = 0;   // Inserts that needed expansion/chaining.
    uint64_t rejected = 0;   // Inserts refused (kRejectedFull).
    bool saturated = false;  // At threshold with no expansion headroom.
    /// Newest generation's family tag — shards diverge after migration.
    std::string family;
    uint64_t migrations = 0;  // Completed online migrations of this shard.
    /// Observed-FPR column (EnableMigration with track_shard_fpr):
    /// negative = shard not instrumented. The per-shard twin of
    /// HottestShard() — triage by FPR, not just by load.
    double observed_fpr = -1.0;
    double fpr_ci_low = 0.0;   // 95% Wilson bounds on observed_fpr.
    double fpr_ci_high = 0.0;
    uint64_t fpr_negative_lookups = 0;
    uint64_t fpr_repeated_keys = 0;  // Adversarial-repeat sketch hits.
  };

  /// One entry per shard, each read under that shard's lock.
  std::vector<ShardStats> Stats() const;
  /// Index of the shard holding the most keys — the rebalancing target.
  size_t HottestShard() const;
  /// Total inserts refused across all shards since construction/Load.
  uint64_t TotalRejected() const;

  // --- Online migration (DESIGN.md §15) -------------------------------------

  /// Knobs for the migratable-shard seam.
  struct MigrationConfig {
    /// Writes that may land during one successor build before the
    /// migration aborts — bounds both the replay backlog and the final
    /// locked drain.
    size_t replay_cap = size_t{1} << 16;
    /// Unlocked catch-up rounds draining the replay backlog before the
    /// final locked drain-and-swap.
    int max_catchup_rounds = 8;
    /// Attach a per-shard ObservedFprEstimator so Stats() grows the
    /// observed-FPR column and WorstFprShard works.
    bool track_shard_fpr = true;
    /// Hard cap on one shard's journal; past it the journal is marked
    /// broken and that shard refuses migration (serving is unaffected).
    size_t journal_cap = size_t{1} << 22;
  };

  /// Arms the migration seam: every shard starts journaling acked
  /// inserts/erases so a successor filter can be rebuilt online. Must be
  /// called while the filter is empty (the journal cannot reconstruct
  /// history it never saw) — returns false otherwise. Loading a snapshot
  /// disarms journaling for the loaded shards (snapshots persist
  /// structure, not op history); re-enable only on an empty filter.
  bool EnableMigration(const MigrationConfig& config);
  bool EnableMigration() { return EnableMigration(MigrationConfig{}); }
  bool migration_enabled() const { return migration_enabled_; }
  const MigrationConfig& migration_config() const {
    return migration_config_;
  }

  /// What happened during one MigrateShard call.
  struct MigrationReport {
    bool ok = false;
    uint64_t snapshot_ops = 0;  // Journal ops replayed in the build phase.
    uint64_t replayed_ops = 0;  // Ops drained in catch-up + final drain.
    uint64_t pause_ns = 0;      // Exclusive-lock hold for drain-and-swap.
    std::string to_family;      // Name() of the successor filter.
    std::string error;          // Empty iff ok.
  };

  /// Builds a successor filter already containing the journal snapshot.
  /// `ops` is the journal prefix captured at migration start; `capacity`
  /// is a sizing hint (live keys with headroom). Returning nullptr aborts
  /// the migration. The default builder constructs via a ShardFactory and
  /// replays the ops; the Tuner's stacked builder constructs a
  /// learned/stacked front from the ops instead.
  using SuccessorBuilder = std::function<std::unique_ptr<Filter>(
      std::span<const FilterJournalOp> ops, uint64_t capacity)>;

  /// Online snapshot-drain-replay migration of one shard (DESIGN.md §15):
  ///   A. under the shard lock, snapshot the journal (a cheap copy) —
  ///      serving continues immediately;
  ///   B. unlocked, build the successor from the snapshot while writes
  ///      keep landing in the old generations *and* the journal;
  ///   C. drain the journal tail in bounded unlocked rounds, then take
  ///      the lock once for the final drain and the atomic swap — the
  ///      only pause serving ever sees, reported as pause_ns.
  /// On any failure (successor refuses a replay op, backlog exceeds
  /// replay_cap) the old generations are untouched and every acked key
  /// is still served: migration is abort-safe by construction.
  /// `successor_factory` becomes the shard's factory afterwards, so
  /// chained generations and quarantine rebuilds stay in the new family.
  MigrationReport MigrateShard(size_t shard, ShardFactory successor_factory);
  MigrationReport MigrateShard(size_t shard, SuccessorBuilder build,
                               ShardFactory successor_factory);

  /// Completed migrations across all shards.
  uint64_t TotalMigrations() const;

  /// Sentinel for "no shard qualified".
  static constexpr size_t kNoShard = ~size_t{0};

  /// Index of the instrumented shard with the highest observed FPR among
  /// those with at least `min_negative_lookups` scored negatives;
  /// kNoShard when none qualify. The FPR twin of HottestShard().
  size_t WorstFprShard(uint64_t min_negative_lookups = 256) const;

  /// What happened to each shard during LoadWithReport.
  struct LoadReport {
    size_t total_shards = 0;
    size_t healthy_shards = 0;
    std::vector<size_t> quarantined;  // Shard indices rebuilt empty.
    bool AllHealthy() const { return quarantined.empty(); }
  };

  /// Snapshot layout (v3): one outer frame holding only the shard
  /// directory (layout version, per-shard capacity, the factory family's
  /// tag, shard count, then per shard its capacities and per-generation
  /// (tag, blob length) pairs), followed by every generation's own
  /// independent frame, shard-major. Per-generation tags because shards
  /// diverge by family after migration. Because every generation frame
  /// carries its own checksum, one corrupt blob doesn't poison the rest.
  /// Safe to call concurrently with inserts/queries: each shard is
  /// serialized under its reader lock (the snapshot is a per-shard-
  /// consistent cut, not a global point in time).
  bool Save(std::ostream& os) const override;

  /// Builds an empty filter for a foreign generation tag found in a
  /// snapshot — shards migrated away from the factory family need one.
  /// Installed by the factory/tuning layer (registry-backed); core stays
  /// registry-free. Without a builder, foreign-tag shards quarantine.
  using TagBuilder = std::function<std::unique_ptr<Filter>(
      std::string_view tag, uint64_t capacity)>;
  void SetSnapshotTagBuilder(TagBuilder builder) {
    tag_builder_ = std::move(builder);
  }

  /// Loads a snapshot written by Save. A shard with any corrupt or
  /// truncated generation frame is *quarantined*: it is rebuilt empty via
  /// the shard factory and listed in the report, while every healthy
  /// shard loads normally. Returns false only when the directory frame
  /// itself is unusable (the filter is left untouched in that case). Not
  /// thread-safe; callers must quiesce concurrent readers first.
  bool LoadWithReport(std::istream& is, LoadReport* report);
  bool Load(std::istream& is) override;

  /// Shards quarantined across every LoadWithReport on this object —
  /// monotone (unlike per-call LoadReport), so the obs layer can export
  /// it as a counter.
  uint64_t TotalQuarantinedShards() const { return shards_quarantined_total_; }

 private:
  struct Shard {
    mutable ShardLock mutex;
    // Generations, oldest first; inserts target back(). Never empty.
    std::vector<std::unique_ptr<Filter>> gens;
    uint64_t newest_capacity;  // Capacity back() was built with.
    uint64_t next_capacity;    // Capacity for the next chained generation.
    uint64_t accepted = 0;
    uint64_t expanded = 0;
    uint64_t rejected = 0;
    // Migration seam. The journal records every acked mutation since the
    // shard was last empty; valid only when that invariant holds.
    std::vector<FilterJournalOp> journal;
    bool journal_valid = false;
    bool journal_broken = false;  // Overflowed journal_cap; stays serving.
    bool migrating = false;       // One migration per shard at a time.
    uint64_t migrations = 0;
    // Post-migration family factory; empty -> the filter-level factory_.
    ShardFactory factory;
    // Per-shard FPR estimator (track_shard_fpr); null when disabled.
    std::unique_ptr<ObservedFprEstimator> fpr;
  };

  size_t ShardOf(HashedKey key) const;
  // The policy-driven insert path; requires shard.mutex held exclusively.
  InsertOutcome InsertIntoShardLocked(Shard& shard, HashedKey key);
  // InsertIntoShardLocked without the journal/estimator bookkeeping.
  InsertOutcome InsertPolicyLocked(Shard& shard, HashedKey key);
  // Chains a fresh generation onto `shard` (kChain). Requires the lock.
  Filter& AddGenerationLocked(Shard& shard);
  std::unique_ptr<Shard> MakeShard() const;
  // The factory chained generations of `shard` build from.
  const ShardFactory& FactoryFor(const Shard& shard) const {
    return shard.factory ? shard.factory : factory_;
  }
  // Rewrites the journal to the net multiset of live ops. Requires the
  // shard lock; called after a successful swap so journal length tracks
  // live keys, not op history.
  static void CompactJournalLocked(Shard& shard);

  // Flat counting sort of pre-hashed `keys` by shard: on return,
  // sorted[start[s]..start[s+1]) holds shard s's keys in batch order and
  // src[p] is the batch position sorted[p] came from (for scattering
  // results back). All outputs are caller-provided flat arrays of
  // keys.size() entries (start: shards+1) — no per-shard vectors, no
  // allocation. The shard id is computed once per key and reused for the
  // scatter.
  void GroupByShard(std::span<const HashedKey> keys, HashedKey* sorted,
                    size_t* src, size_t* start) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  ShardFactory factory_;          // Kept for chaining + quarantine rebuilds.
  uint64_t per_shard_capacity_;   // Capacity each shard was built with.
  SaturationConfig config_;
  uint64_t shards_quarantined_total_ = 0;  // Not reset by Load.
  bool migration_enabled_ = false;
  MigrationConfig migration_config_;
  TagBuilder tag_builder_;
};

}  // namespace bbf

#endif  // BBF_CORE_SHARDED_FILTER_H_
