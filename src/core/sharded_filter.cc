#include "core/sharded_filter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/metrics_sink.h"
#include "util/serialize.h"

namespace bbf {
namespace {

// Directory layout version for the sharded snapshot frame. v1 had no
// generation chains; its first directory field was a capacity (always far
// larger than any version number), so v1 streams fail the version check
// cleanly instead of misparsing. v3 (migration) records a tag per
// generation because shards diverge by family after MigrateShard.
constexpr uint64_t kShardedDirVersion = 3;

// Sanity cap on per-shard generation counts in snapshots; real configs
// stay in single digits.
constexpr uint64_t kMaxSnapshotGenerations = 4096;

// A catch-up round that drains the replay backlog to this size or below
// stops iterating: the remainder is cheap enough to drain under the lock.
constexpr size_t kFinalDrainTarget = 64;

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int SaturationConfig::GenerationsForFprBudget(double per_generation_fpr,
                                              double fpr_budget) {
  if (per_generation_fpr <= 0 || fpr_budget <= 0) return 1;
  return std::max(1, static_cast<int>(fpr_budget / per_generation_fpr));
}

std::unique_ptr<ShardedFilter::Shard> ShardedFilter::MakeShard() const {
  auto shard = std::make_unique<Shard>();
  shard->gens.push_back(factory_(per_shard_capacity_));
  // Quarantine rebuilds and snapshot loads create shards after a sink may
  // have been attached; keep them reporting.
  shard->gens.back()->AttachMetricsSink(sink_);
  shard->newest_capacity = per_shard_capacity_;
  shard->next_capacity = static_cast<uint64_t>(
      std::max(1.0, per_shard_capacity_ * config_.growth));
  // A freshly built shard is empty, so its (empty) journal is a complete
  // op history — quarantine rebuilds stay migratable.
  if (migration_enabled_) {
    shard->journal_valid = true;
    if (migration_config_.track_shard_fpr) {
      shard->fpr = std::make_unique<ObservedFprEstimator>();
    }
  }
  return shard;
}

ShardedFilter::ShardedFilter(uint64_t expected_keys, int num_shards,
                             ShardFactory factory)
    : ShardedFilter(expected_keys, num_shards, std::move(factory),
                    SaturationConfig{}) {}

ShardedFilter::ShardedFilter(uint64_t expected_keys, int num_shards,
                             ShardFactory factory,
                             const SaturationConfig& config)
    : factory_(std::move(factory)), config_(config) {
  shards_.reserve(num_shards);
  per_shard_capacity_ =
      expected_keys / num_shards + expected_keys / (num_shards * 4) + 16;
  for (int s = 0; s < num_shards; ++s) {
    shards_.push_back(MakeShard());
  }
}

size_t ShardedFilter::ShardOf(HashedKey key) const {
  // Routing slices the canonical mix directly — zero extra hashing. The
  // bit-usage contract (core/key.h) keeps this sound: families only ever
  // consume Derive(stream) values, never value() itself, so shard
  // selection cannot bias any family's fingerprint distribution.
  return static_cast<size_t>(key.value() % shards_.size());
}

Filter& ShardedFilter::AddGenerationLocked(Shard& shard) {
  shard.gens.push_back(FactoryFor(shard)(shard.next_capacity));
  shard.gens.back()->AttachMetricsSink(sink_);
  if (sink_ != nullptr) sink_->OnExpansion();
  shard.newest_capacity = shard.next_capacity;
  shard.next_capacity = static_cast<uint64_t>(
      std::max(1.0, shard.next_capacity * config_.growth));
  return *shard.gens.back();
}

void ShardedFilter::AttachMetricsSink(MetricsSink* sink) {
  Filter::AttachMetricsSink(sink);
  for (const auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    for (const auto& gen : shard->gens) gen->AttachMetricsSink(sink);
  }
}

InsertOutcome ShardedFilter::InsertIntoShardLocked(Shard& shard,
                                                   HashedKey key) {
  const InsertOutcome out = InsertPolicyLocked(shard, key);
  if (Accepted(out)) {
    if (shard.journal_valid && !shard.journal_broken) {
      if (shard.journal.size() >= migration_config_.journal_cap) {
        // Over the cap the journal can no longer claim to be the full
        // history; serving continues, migration of this shard is refused.
        shard.journal_broken = true;
      } else {
        shard.journal.push_back({key.value(), 0});
      }
    }
    if (shard.fpr && ObservedFprEstimator::InDomain(key)) {
      shard.fpr->RecordInsert(key);
    }
  }
  return out;
}

InsertOutcome ShardedFilter::InsertPolicyLocked(Shard& shard, HashedKey key) {
  Filter& cur = *shard.gens.back();
  const bool saturated = cur.LoadFactor() >= config_.load_threshold;
  if (!saturated && cur.Insert(key)) {
    ++shard.accepted;
    return InsertOutcome::kAccepted;
  }
  // Either the threshold tripped or the family refused early (e.g. a
  // cuckoo kick failure below nominal load) — degrade per policy.
  switch (config_.policy) {
    case SaturationPolicy::kReject:
      ++shard.rejected;
      return InsertOutcome::kRejectedFull;
    case SaturationPolicy::kChain:
      if (static_cast<int>(shard.gens.size()) < config_.max_generations) {
        if (AddGenerationLocked(shard).Insert(key)) {
          ++shard.expanded;
          return InsertOutcome::kExpanded;
        }
        ++shard.rejected;
        return InsertOutcome::kRejectedFull;
      }
      // Generation budget exhausted: squeeze the newest generation past
      // the threshold (its own hard limit still applies) rather than
      // reject outright. Only worth attempting if we haven't already.
      if (saturated && cur.Insert(key)) {
        ++shard.accepted;
        return InsertOutcome::kAccepted;
      }
      ++shard.rejected;
      return InsertOutcome::kRejectedFull;
    case SaturationPolicy::kExpandInPlace:
      // Natively expanding families restructure inside Insert; all we add
      // is the honest status. A second attempt after a sub-threshold
      // failure is safe: a failed Insert left no trace of the key.
      if (cur.Insert(key)) {
        ++shard.expanded;
        return InsertOutcome::kExpanded;
      }
      ++shard.rejected;
      return InsertOutcome::kRejectedFull;
  }
  ++shard.rejected;
  return InsertOutcome::kRejectedFull;  // Unreachable; placates compilers.
}

InsertOutcome ShardedFilter::InsertWithStatus(HashedKey key) {
  Shard& shard = *shards_[ShardOf(key)];
  std::unique_lock lock(shard.mutex);
  return InsertIntoShardLocked(shard, key);
}

bool ShardedFilter::Insert(HashedKey key) {
  return Accepted(InsertWithStatus(key));
}

bool ShardedFilter::Contains(HashedKey key) const {
  const Shard& shard = *shards_[ShardOf(key)];
  std::shared_lock lock(shard.mutex);
  bool hit = false;
  for (const auto& gen : shard.gens) {
    if (gen->Contains(key)) {
      hit = true;
      break;
    }
  }
  if (shard.fpr && ObservedFprEstimator::InDomain(key)) {
    shard.fpr->RecordLookup(key, hit);
  }
  return hit;
}

void ShardedFilter::GroupByShard(std::span<const HashedKey> keys,
                                 HashedKey* sorted, size_t* src,
                                 size_t* start) const {
  const size_t num_shards = shards_.size();
  // The shard id of each key is stored, not recomputed — `% num_shards`
  // is a 64-bit divide, and paying it twice per key was a measurable
  // share of the old grouping cost.
  constexpr size_t kStackIds = 4096;
  uint32_t sid_stack[kStackIds];
  std::vector<uint32_t> sid_heap;
  uint32_t* sid = sid_stack;
  if (keys.size() > kStackIds) {
    sid_heap.resize(keys.size());
    sid = sid_heap.data();
  }
  std::fill(start, start + num_shards + 1, 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    sid[i] = static_cast<uint32_t>(keys[i].value() % num_shards);
    ++start[sid[i] + 1];
  }
  for (size_t s = 0; s < num_shards; ++s) start[s + 1] += start[s];
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t pos = start[sid[i]]++;
    sorted[pos] = keys[i];
    src[pos] = i;
  }
  // The scatter advanced every cursor to its successor's offset; shift
  // back in place instead of keeping a second cursor array.
  for (size_t s = num_shards; s > 0; --s) start[s] = start[s - 1];
  start[0] = 0;
}

namespace {

// Stack scratch bounds for the grouped batch paths: batches up to
// kStackKeys keys (and up to kStackShards-1 shards) run with zero heap
// allocation, which is what makes grouping profitable for mid-size
// batches that the old vector-of-vectors grouping lost money on.
constexpr size_t kStackKeys = 1024;
constexpr size_t kStackShards = 129;

}  // namespace

void ShardedFilter::ContainsMany(std::span<const HashedKey> keys,
                                 uint8_t* out) const {
  const size_t num_shards = shards_.size();
  // Passthrough: a batch shallower than ~2 keys per shard can't feed any
  // shard's prefetch pipeline — grouping would add the sort and scatter
  // for nothing — so it routes through per-key dispatch.
  if (keys.size() < num_shards * 2) {
    for (size_t i = 0; i < keys.size(); ++i) {
      out[i] = Contains(keys[i]) ? 1 : 0;
    }
    return;
  }
  HashedKey sorted_stack[kStackKeys];
  size_t src_stack[kStackKeys];
  uint8_t res_stack[kStackKeys];
  size_t start_stack[kStackShards];
  std::vector<HashedKey> sorted_heap;
  std::vector<size_t> src_heap;
  std::vector<uint8_t> res_heap;
  std::vector<size_t> start_heap;
  HashedKey* sorted = sorted_stack;
  size_t* src = src_stack;
  uint8_t* res = res_stack;
  size_t* start = start_stack;
  if (keys.size() > kStackKeys) {
    sorted_heap.resize(keys.size());
    src_heap.resize(keys.size());
    res_heap.resize(keys.size());
    sorted = sorted_heap.data();
    src = src_heap.data();
    res = res_heap.data();
  }
  if (num_shards + 1 > kStackShards) {
    start_heap.resize(num_shards + 1);
    start = start_heap.data();
  }
  GroupByShard(keys, sorted, src, start);
  std::vector<uint8_t> gen_out;  // Only sized when a shard has chained.
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t b = start[s];
    const size_t e = start[s + 1];
    if (b == e) continue;
    const std::span<const HashedKey> sub(sorted + b, e - b);
    std::shared_lock lock(shards_[s]->mutex);
    const auto& gens = shards_[s]->gens;
    // Single generation (the common case) writes results directly;
    // chained shards OR the per-generation answers together.
    gens.front()->ContainsMany(sub, res + b);
    if (gens.size() > 1) {
      gen_out.resize(sub.size());
      for (size_t g = 1; g < gens.size(); ++g) {
        gens[g]->ContainsMany(sub, gen_out.data());
        for (size_t j = 0; j < sub.size(); ++j) res[b + j] |= gen_out[j];
      }
    }
    if (shards_[s]->fpr != nullptr) {
      // Strided like InstrumentedFilter's batch path: scoring every
      // in-domain key would funnel 1/64th of the batch through the
      // estimator mutex while the shard lock is held.
      for (size_t j = 0; j < sub.size(); j += 16) {
        if (ObservedFprEstimator::InDomain(sub[j])) {
          shards_[s]->fpr->RecordLookup(sub[j], res[b + j] != 0);
        }
      }
    }
  }
  for (size_t p = 0; p < keys.size(); ++p) out[src[p]] = res[p];
}

size_t ShardedFilter::InsertMany(std::span<const HashedKey> keys) {
  const size_t num_shards = shards_.size();
  if (keys.size() < num_shards * 2) {
    size_t inserted = 0;
    for (HashedKey key : keys) inserted += Insert(key);
    return inserted;
  }
  HashedKey sorted_stack[kStackKeys];
  size_t src_stack[kStackKeys];
  size_t start_stack[kStackShards];
  std::vector<HashedKey> sorted_heap;
  std::vector<size_t> src_heap;
  std::vector<size_t> start_heap;
  HashedKey* sorted = sorted_stack;
  size_t* src = src_stack;
  size_t* start = start_stack;
  if (keys.size() > kStackKeys) {
    sorted_heap.resize(keys.size());
    src_heap.resize(keys.size());
    sorted = sorted_heap.data();
    src = src_heap.data();
  }
  if (num_shards + 1 > kStackShards) {
    start_heap.resize(num_shards + 1);
    start = start_heap.data();
  }
  GroupByShard(keys, sorted, src, start);
  size_t inserted = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t b = start[s];
    const size_t e = start[s + 1];
    if (b == e) continue;
    const std::span<const HashedKey> sub(sorted + b, e - b);
    Shard& shard = *shards_[s];
    std::unique_lock lock(shard.mutex);
    Filter& cur = *shard.gens.back();
    // Journaling shards always take the per-key path: the count-only
    // fast path cannot attribute a partial batch to keys, and a journal
    // recording a key the family refused would replay a phantom insert.
    if (shard.journal_valid || shard.fpr != nullptr) {
      for (HashedKey key : sub) {
        inserted += Accepted(InsertIntoShardLocked(shard, key));
      }
      continue;
    }
    // Fast path: if the whole sub-batch fits under the threshold, hand it
    // to the newest generation's prefetch-pipelined InsertMany. The
    // headroom estimate is conservative (batch over built capacity), so
    // a family shouldn't hit its hard limit inside the batch; if it still
    // refuses some keys the returned count stays truthful.
    const double headroom =
        config_.load_threshold - cur.LoadFactor() -
        static_cast<double>(sub.size()) / shard.newest_capacity;
    if (headroom > 0) {
      const size_t n = cur.InsertMany(sub);
      shard.accepted += n;
      shard.rejected += sub.size() - n;
      inserted += n;
      continue;
    }
    // Near saturation: per-key policy path (chaining mid-batch is fine).
    for (HashedKey key : sub) {
      inserted += Accepted(InsertIntoShardLocked(shard, key));
    }
  }
  return inserted;
}

void ShardedFilter::InsertManyWithStatus(std::span<const HashedKey> keys,
                                         InsertOutcome* out) {
  const size_t num_shards = shards_.size();
  if (keys.size() < num_shards * 2) {
    for (size_t i = 0; i < keys.size(); ++i) {
      out[i] = InsertWithStatus(keys[i]);
    }
    return;
  }
  HashedKey sorted_stack[kStackKeys];
  size_t src_stack[kStackKeys];
  size_t start_stack[kStackShards];
  std::vector<HashedKey> sorted_heap;
  std::vector<size_t> src_heap;
  std::vector<size_t> start_heap;
  HashedKey* sorted = sorted_stack;
  size_t* src = src_stack;
  size_t* start = start_stack;
  if (keys.size() > kStackKeys) {
    sorted_heap.resize(keys.size());
    src_heap.resize(keys.size());
    sorted = sorted_heap.data();
    src = src_heap.data();
  }
  if (num_shards + 1 > kStackShards) {
    start_heap.resize(num_shards + 1);
    start = start_heap.data();
  }
  GroupByShard(keys, sorted, src, start);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t b = start[s];
    const size_t e = start[s + 1];
    if (b == e) continue;
    Shard& shard = *shards_[s];
    std::unique_lock lock(shard.mutex);
    // Always the per-key policy path: the InsertMany fast path returns
    // only a count, which cannot be attributed to keys when a family
    // refuses some of a sub-batch — and guessing would ack a key that
    // was never stored.
    for (size_t p = b; p < e; ++p) {
      out[src[p]] = InsertIntoShardLocked(shard, sorted[p]);
    }
  }
}

bool ShardedFilter::Erase(HashedKey key) {
  Shard& shard = *shards_[ShardOf(key)];
  std::unique_lock lock(shard.mutex);
  // Newest first: recent inserts are the likeliest erase targets.
  bool erased = false;
  for (auto it = shard.gens.rbegin(); it != shard.gens.rend(); ++it) {
    if ((*it)->Erase(key)) {
      erased = true;
      break;
    }
  }
  if (erased) {
    if (shard.journal_valid && !shard.journal_broken) {
      if (shard.journal.size() >= migration_config_.journal_cap) {
        shard.journal_broken = true;
      } else {
        shard.journal.push_back({key.value(), 1});
      }
    }
    if (shard.fpr && ObservedFprEstimator::InDomain(key)) {
      shard.fpr->RecordErase(key);
    }
  }
  return erased;
}

uint64_t ShardedFilter::Count(HashedKey key) const {
  const Shard& shard = *shards_[ShardOf(key)];
  std::shared_lock lock(shard.mutex);
  uint64_t count = 0;
  for (const auto& gen : shard.gens) count += gen->Count(key);
  return count;
}

size_t ShardedFilter::SpaceBits() const {
  size_t bits = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& gen : shard->gens) bits += gen->SpaceBits();
  }
  return bits;
}

uint64_t ShardedFilter::NumKeys() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& gen : shard->gens) n += gen->NumKeys();
  }
  return n;
}

double ShardedFilter::LoadFactor() const {
  double max_load = 0.0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    max_load = std::max(max_load, shard->gens.back()->LoadFactor());
  }
  return max_load;
}

std::vector<ShardedFilter::ShardStats> ShardedFilter::Stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    ShardStats s;
    for (const auto& gen : shard->gens) s.num_keys += gen->NumKeys();
    s.load_factor = shard->gens.back()->LoadFactor();
    s.generations = shard->gens.size();
    s.accepted = shard->accepted;
    s.expanded = shard->expanded;
    s.rejected = shard->rejected;
    s.family = std::string(shard->gens.back()->Name());
    s.migrations = shard->migrations;
    if (shard->fpr != nullptr) {
      const ObservedFprEstimator::Snapshot f = shard->fpr->Snap();
      s.observed_fpr = f.observed_fpr;
      s.fpr_ci_low = f.ci_low;
      s.fpr_ci_high = f.ci_high;
      s.fpr_negative_lookups = f.negative_lookups;
      s.fpr_repeated_keys = f.fp_repeated_keys;
    }
    const bool can_chain =
        config_.policy == SaturationPolicy::kChain &&
        static_cast<int>(shard->gens.size()) < config_.max_generations;
    s.saturated = s.load_factor >= config_.load_threshold && !can_chain &&
                  config_.policy != SaturationPolicy::kExpandInPlace;
    stats.push_back(s);
  }
  return stats;
}

size_t ShardedFilter::HottestShard() const {
  size_t hottest = 0;
  uint64_t hottest_keys = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::shared_lock lock(shards_[i]->mutex);
    uint64_t n = 0;
    for (const auto& gen : shards_[i]->gens) n += gen->NumKeys();
    if (n > hottest_keys) {
      hottest_keys = n;
      hottest = i;
    }
  }
  return hottest;
}

uint64_t ShardedFilter::TotalRejected() const {
  uint64_t rejected = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    rejected += shard->rejected;
  }
  return rejected;
}

uint64_t ShardedFilter::TotalMigrations() const {
  uint64_t migrations = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    migrations += shard->migrations;
  }
  return migrations;
}

size_t ShardedFilter::WorstFprShard(uint64_t min_negative_lookups) const {
  size_t worst = kNoShard;
  double worst_fpr = -1.0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::shared_lock lock(shards_[i]->mutex);
    if (shards_[i]->fpr == nullptr) continue;
    const ObservedFprEstimator::Snapshot f = shards_[i]->fpr->Snap();
    if (f.negative_lookups < min_negative_lookups) continue;
    if (f.observed_fpr > worst_fpr) {
      worst_fpr = f.observed_fpr;
      worst = i;
    }
  }
  return worst;
}

bool ShardedFilter::EnableMigration(const MigrationConfig& config) {
  // All shard locks held at once (ordered, so no deadlock risk) so the
  // emptiness check and the arm are one atomic step across the filter.
  std::vector<std::unique_lock<ShardLock>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  for (const auto& shard : shards_) {
    for (const auto& gen : shard->gens) {
      if (gen->NumKeys() > 0) return false;
    }
  }
  migration_enabled_ = true;
  migration_config_ = config;
  for (const auto& shard : shards_) {
    shard->journal.clear();
    shard->journal_valid = true;
    shard->journal_broken = false;
    if (config.track_shard_fpr && shard->fpr == nullptr) {
      shard->fpr = std::make_unique<ObservedFprEstimator>();
    }
  }
  return true;
}

void ShardedFilter::CompactJournalLocked(Shard& shard) {
  // The net multiset of live ops replaces the op history: membership
  // families ignore multiplicity and order, counting families keep their
  // counts, and journal length now tracks live keys instead of traffic.
  std::unordered_map<uint64_t, int64_t> counts;
  counts.reserve(shard.journal.size());
  for (const FilterJournalOp& op : shard.journal) {
    counts[op.mix] += op.erase ? -1 : 1;
  }
  shard.journal.clear();
  for (const auto& [mix, count] : counts) {
    for (int64_t i = 0; i < count; ++i) shard.journal.push_back({mix, 0});
  }
}

ShardedFilter::MigrationReport ShardedFilter::MigrateShard(
    size_t shard_idx, ShardFactory successor_factory) {
  // Default successor builder: construct empty via the factory and replay
  // the snapshot ops in journal order.
  ShardFactory factory = successor_factory;
  return MigrateShard(
      shard_idx,
      [factory](std::span<const FilterJournalOp> ops,
                uint64_t capacity) -> std::unique_ptr<Filter> {
        std::unique_ptr<Filter> successor = factory(capacity);
        if (!successor) return nullptr;
        for (const FilterJournalOp& op : ops) {
          const HashedKey key = HashedKey::FromMix(op.mix);
          if (op.erase) {
            successor->Erase(key);
          } else if (!successor->Insert(key)) {
            return nullptr;
          }
        }
        return successor;
      },
      std::move(successor_factory));
}

ShardedFilter::MigrationReport ShardedFilter::MigrateShard(
    size_t shard_idx, SuccessorBuilder build, ShardFactory successor_factory) {
  MigrationReport report;
  if (shard_idx >= shards_.size()) {
    report.error = "shard index out of range";
    return report;
  }
  Shard& shard = *shards_[shard_idx];
  auto fail = [&](std::string error) {
    std::unique_lock lock(shard.mutex);
    shard.migrating = false;
    report.error = std::move(error);
    return report;
  };

  // Phase A — snapshot the journal under the lock. The copy is the whole
  // pause writers see at this point; serving resumes immediately.
  std::vector<FilterJournalOp> snapshot_ops;
  {
    std::unique_lock lock(shard.mutex);
    if (!migration_enabled_ || !shard.journal_valid) {
      report.error = "migration not enabled for this shard";
      return report;
    }
    if (shard.journal_broken) {
      report.error = "journal broken (overflowed journal_cap)";
      return report;
    }
    if (shard.migrating) {
      report.error = "migration already in progress";
      return report;
    }
    shard.migrating = true;
    snapshot_ops = shard.journal;
  }
  report.snapshot_ops = snapshot_ops.size();
  int64_t live = 0;
  for (const FilterJournalOp& op : snapshot_ops) live += op.erase ? -1 : 1;
  live = std::max<int64_t>(live, 0);
  const uint64_t capacity = std::max<uint64_t>(
      per_shard_capacity_,
      static_cast<uint64_t>(live) + static_cast<uint64_t>(live) / 2 + 16);

  // Phase B — build the successor unlocked; reads and writes keep
  // flowing through the old generations, writes also land in the journal.
  std::unique_ptr<Filter> successor = build(
      std::span<const FilterJournalOp>(snapshot_ops), capacity);
  if (!successor) {
    return fail("successor build failed (builder refused a snapshot op)");
  }

  auto replay = [&](std::span<const FilterJournalOp> ops) {
    for (const FilterJournalOp& op : ops) {
      const HashedKey key = HashedKey::FromMix(op.mix);
      if (op.erase) {
        successor->Erase(key);
      } else if (!successor->Insert(key)) {
        return false;
      }
    }
    return true;
  };

  // Phase C — catch-up rounds: drain the ops that landed during the
  // build, reading the tail under a shared lock, replaying unlocked.
  size_t cursor = snapshot_ops.size();
  std::vector<FilterJournalOp> tail;
  for (int round = 0; round < migration_config_.max_catchup_rounds; ++round) {
    tail.clear();
    {
      std::shared_lock lock(shard.mutex);
      if (shard.journal_broken) {
        lock.unlock();
        return fail("journal broke during migration");
      }
      if (shard.journal.size() - cursor > migration_config_.replay_cap) {
        lock.unlock();
        return fail("replay backlog exceeded replay_cap");
      }
      tail.assign(shard.journal.begin() + static_cast<ptrdiff_t>(cursor),
                  shard.journal.end());
    }
    if (tail.size() <= kFinalDrainTarget) break;
    if (!replay(tail)) return fail("successor rejected a replayed op");
    cursor += tail.size();
    report.replayed_ops += tail.size();
  }

  // Final drain and swap under the exclusive lock — the migration pause.
  const uint64_t pause_start = MonotonicNanos();
  {
    std::unique_lock lock(shard.mutex);
    if (shard.journal_broken) {
      shard.migrating = false;
      report.error = "journal broke during migration";
      return report;
    }
    if (shard.journal.size() - cursor > migration_config_.replay_cap) {
      shard.migrating = false;
      report.error = "replay backlog exceeded replay_cap";
      return report;
    }
    const std::span<const FilterJournalOp> rest(
        shard.journal.data() + cursor, shard.journal.size() - cursor);
    if (!replay(rest)) {
      shard.migrating = false;
      report.error = "successor rejected a replayed op";
      return report;
    }
    report.replayed_ops += rest.size();
    successor->AttachMetricsSink(sink_);
    report.to_family = std::string(successor->Name());
    shard.gens.clear();
    shard.gens.push_back(std::move(successor));
    shard.newest_capacity = capacity;
    shard.next_capacity = static_cast<uint64_t>(
        std::max(1.0, static_cast<double>(capacity) * config_.growth));
    if (successor_factory) shard.factory = std::move(successor_factory);
    CompactJournalLocked(shard);
    if (shard.fpr != nullptr) shard.fpr->ResetObservations();
    shard.migrating = false;
    ++shard.migrations;
  }
  report.pause_ns = MonotonicNanos() - pause_start;
  report.ok = true;
  return report;
}

bool ShardedFilter::Save(std::ostream& os) const {
  if (shards_.empty()) return false;
  // Frame every generation independently first; the directory needs the
  // blob lengths, and each blob keeps its own checksum so corruption
  // stays contained. Serializing under per-shard reader locks makes Save
  // safe against concurrent inserts: the result is a per-shard-consistent
  // cut (shard i may be older than shard j, each internally intact).
  struct GenEntry {
    std::string tag;
    std::string blob;
  };
  std::vector<std::vector<GenEntry>> blobs(shards_.size());
  std::vector<uint64_t> newest_caps(shards_.size());
  std::vector<uint64_t> next_caps(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_lock lock(shards_[s]->mutex);
    newest_caps[s] = shards_[s]->newest_capacity;
    next_caps[s] = shards_[s]->next_capacity;
    for (const auto& gen : shards_[s]->gens) {
      std::ostringstream ss;
      if (!gen->Save(ss)) return false;
      blobs[s].push_back({std::string(gen->Name()), std::move(ss).str()});
    }
  }
  // The directory leads with the *factory* family's tag (not a
  // generation's): LoadWithReport probes the factory against it, and
  // filter_io's tag dispatcher rebuilds a matching factory from it. The
  // per-generation tags that follow carry the real (possibly migrated)
  // families.
  const std::string factory_tag(factory_(1)->Name());
  std::ostringstream dir;
  WriteU64(dir, kShardedDirVersion);
  WriteU64(dir, per_shard_capacity_);
  WriteU64(dir, factory_tag.size());
  dir.write(factory_tag.data(),
            static_cast<std::streamsize>(factory_tag.size()));
  WriteU64(dir, blobs.size());
  for (size_t s = 0; s < blobs.size(); ++s) {
    WriteU64(dir, newest_caps[s]);
    WriteU64(dir, next_caps[s]);
    WriteU64(dir, blobs[s].size());
    for (const GenEntry& gen : blobs[s]) {
      WriteU64(dir, gen.tag.size());
      dir.write(gen.tag.data(), static_cast<std::streamsize>(gen.tag.size()));
      WriteU64(dir, gen.blob.size());
    }
  }
  if (!WriteSnapshotFrame(os, Name(), std::move(dir).str())) return false;
  for (const auto& shard_blobs : blobs) {
    for (const GenEntry& gen : shard_blobs) {
      os.write(gen.blob.data(),
               static_cast<std::streamsize>(gen.blob.size()));
    }
  }
  return os.good();
}

bool ShardedFilter::Load(std::istream& is) {
  LoadReport report;
  return LoadWithReport(is, &report);
}

bool ShardedFilter::LoadWithReport(std::istream& is, LoadReport* report) {
  *report = LoadReport{};
  std::string tag;
  std::string directory;
  if (!ReadSnapshotFrame(is, &tag, &directory) || tag != Name()) {
    return false;
  }
  std::istringstream dir(directory);
  uint64_t version;
  uint64_t capacity;
  uint64_t tag_len;
  std::string factory_tag;
  uint64_t count;
  if (!ReadU64(dir, &version) || version != kShardedDirVersion ||
      !ReadU64Capped(dir, &capacity, kMaxSnapshotElements) ||
      !ReadU64Capped(dir, &tag_len, kMaxSnapshotTagBytes) ||
      !ReadBytes(dir, &factory_tag, tag_len) ||
      !ReadU64Capped(dir, &count, uint64_t{1} << 20) || count == 0) {
    return false;
  }
  struct GenMeta {
    std::string tag;
    uint64_t blob_len = 0;
  };
  struct ShardMeta {
    uint64_t newest_capacity = 0;
    uint64_t next_capacity = 0;
    std::vector<GenMeta> gens;
  };
  std::vector<ShardMeta> meta(count);
  for (ShardMeta& sm : meta) {
    uint64_t gens;
    if (!ReadU64Capped(dir, &sm.newest_capacity, kMaxSnapshotElements) ||
        !ReadU64Capped(dir, &sm.next_capacity, kMaxSnapshotElements) ||
        !ReadU64Capped(dir, &gens, kMaxSnapshotGenerations) || gens == 0) {
      return false;
    }
    sm.gens.resize(gens);
    for (GenMeta& gm : sm.gens) {
      uint64_t gen_tag_len;
      if (!ReadU64Capped(dir, &gen_tag_len, kMaxSnapshotTagBytes) ||
          !ReadBytes(dir, &gm.tag, gen_tag_len) ||
          !ReadU64Capped(dir, &gm.blob_len, kMaxSnapshotPayloadBytes)) {
        return false;
      }
    }
  }
  // The factory must produce the family the snapshot's directory names;
  // otherwise every factory-tagged generation would quarantine and the
  // caller would silently get an empty filter. Generations with *other*
  // tags (shards migrated to a new family) construct through the
  // injectable TagBuilder; without one, those shards quarantine.
  std::string probe_tag;
  {
    std::unique_ptr<Filter> probe = factory_(capacity);
    if (!probe || probe->Name() != factory_tag) return false;
    probe_tag = std::string(probe->Name());
  }
  // Directory verified — from here on every defect is per-shard and
  // handled by quarantine, so committing the capacity now is safe.
  per_shard_capacity_ = capacity;
  auto build_for_tag = [&](const std::string& gen_tag,
                           uint64_t gen_capacity) -> std::unique_ptr<Filter> {
    if (gen_tag == probe_tag) return factory_(gen_capacity);
    if (tag_builder_) return tag_builder_(gen_tag, gen_capacity);
    return nullptr;
  };
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (uint64_t s = 0; s < count; ++s) {
    auto shard = MakeShard();
    shard->gens.clear();
    bool healthy = true;
    for (size_t g = 0; g < meta[s].gens.size(); ++g) {
      std::string blob;
      // Keep consuming blobs even after a corrupt one so later shards
      // stay aligned in the stream.
      const bool have_blob = ReadBytes(is, &blob, meta[s].gens[g].blob_len);
      if (!healthy) continue;
      std::unique_ptr<Filter> gen =
          build_for_tag(meta[s].gens[g].tag, meta[s].newest_capacity);
      if (gen == nullptr) {
        healthy = false;
        continue;
      }
      gen->AttachMetricsSink(sink_);
      std::istringstream bs(blob);
      if (have_blob && gen->Load(bs)) {
        shard->gens.push_back(std::move(gen));
      } else {
        healthy = false;
      }
    }
    if (healthy && !shard->gens.empty()) {
      shard->newest_capacity = meta[s].newest_capacity;
      shard->next_capacity = std::max<uint64_t>(1, meta[s].next_capacity);
      // A loaded shard carries keys with no op history: journaling stays
      // off until the filter is emptied and EnableMigration runs again.
      shard->journal_valid = false;
      ++report->healthy_shards;
    } else {
      // Quarantine: any bad generation rebuilds the whole shard empty so
      // a partially corrupt chain can never leak state.
      shard = MakeShard();
      report->quarantined.push_back(static_cast<size_t>(s));
      ++shards_quarantined_total_;
    }
    shards.push_back(std::move(shard));
  }
  report->total_shards = static_cast<size_t>(count);
  shards_ = std::move(shards);
  return true;
}

}  // namespace bbf
