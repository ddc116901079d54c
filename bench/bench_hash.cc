// Experiment E21 (DESIGN.md §4, §10): what the hash-once key pipeline
// buys. Two angles:
//
//  * primitives — per-key hashing cost of the old pipeline (one routing
//    hash in the sharding layer plus an independent re-hash inside the
//    family) vs the new one (one canonical Mix64 at the boundary, with
//    families deriving streams via a single widening multiply each);
//  * end-to-end sharded lookups — the layer the refactor targeted: the
//    legacy double-hash route/probe emulation vs ShardedFilter's scalar
//    hash-once path vs its batched path (hash once into scratch, group by
//    shard, prefetch, probe).
//
// Usage: bench_hash [--quick] [--json=PATH]
//   --quick      only the in-cache size (1M keys); default also runs the
//                out-of-LLC size (8M keys).
//   --json=PATH  write machine-readable results (BENCH_hash.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bloom/bloom_filter.h"
#include "core/key.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "util/hash.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

constexpr int kReps = 3;
constexpr size_t kShards = 16;

Report* g_report = nullptr;

void Record(const std::string& section, const std::string& name, uint64_t n,
            double mops, double baseline_mops) {
  const double speedup = baseline_mops > 0 ? mops / baseline_mops : 0.0;
  g_report->Add({{"section", section}, {"mode", name}, {"n", n}},
                {{"mops", "Mops", mops}, {"speedup", "x", speedup}});
  std::printf("  %-14s %-22s n=%-9llu %9.2f Mops   %5.2fx\n", section.c_str(),
              name.c_str(), static_cast<unsigned long long>(n), mops, speedup);
}

// ---- Part A: per-key hashing primitives. The accumulator is consumed
// after timing so the hash loops cannot be dead-code-eliminated.

void RunPrimitives(const std::vector<uint64_t>& keys) {
  const uint64_t n = keys.size();
  uint64_t acc = 0;

  // Legacy pipeline: one seeded routing hash (the old ShardedFilter's
  // Hash64(key, 0x5A4D)) plus the family's own full re-mix of the raw
  // key — two finalizer-strength mixes per op.
  const double t_legacy = BestSeconds(kReps, [&] {
    for (uint64_t k : keys) acc ^= Hash64(k, 0x5A4D) ^ Mix64(k);
  });
  const double legacy_mops = Mops(n, t_legacy);
  Record("primitive", "legacy-route+rehash", n, legacy_mops, legacy_mops);

  // Hash-once boundary: the single canonical mix every layer shares.
  const double t_mix = BestSeconds(kReps, [&] {
    for (uint64_t k : keys) acc ^= HashedKey(k).value();
  });
  Record("primitive", "hash-once-boundary", n, Mops(n, t_mix), legacy_mops);

  // Boundary mix plus a Kirsch–Mitzenmacher h1/h2 stream pair — the full
  // per-key hashing a Bloom probe needs under the new pipeline.
  const double t_derive = BestSeconds(kReps, [&] {
    for (uint64_t k : keys) {
      const HashedKey hk(k);
      acc ^= hk.Derive(0) ^ hk.Derive(1);
    }
  });
  Record("primitive", "hash-once+derive-pair", n, Mops(n, t_derive),
         legacy_mops);

  // String boundary: 16-byte keys hashed once at entry.
  std::vector<std::string> strs;
  strs.reserve(n);
  for (uint64_t k : keys) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(k));
    strs.emplace_back(buf, 16);
  }
  const double t_str = BestSeconds(kReps, [&] {
    for (const std::string& s : strs) {
      acc ^= HashedKey(std::string_view(s)).value();
    }
  });
  Record("primitive", "string-boundary-16B", n, Mops(n, t_str), legacy_mops);

  if (acc == 42) std::printf("# unlikely\n");  // Consume the accumulator.
}

// ---- Part B: end-to-end sharded lookups.

using ShardFactory = std::function<std::unique_ptr<Filter>(uint64_t)>;

/// A bare sharded lookup structure: the routing layer re-implemented in
/// the bench over a plain shard array, with no serving-layer locks. All
/// three pipelines below run on this same structure, so the comparison
/// isolates hashing and batching — the per-shard lock economics of the
/// real ShardedFilter are E20's subject (`bench_concurrent`), not E21's.
struct BareSharded {
  BareSharded(uint64_t capacity, const ShardFactory& make) {
    shards.reserve(kShards);
    for (size_t s = 0; s < kShards; ++s) {
      shards.push_back(make(capacity / kShards + 1));
    }
  }

  // The pre-refactor pipeline: a dedicated seeded routing hash picks the
  // shard, then the family re-mixes the raw key. Two mixes per op.
  bool LegacyContains(uint64_t key) const {
    return shards[Hash64(key, 0x5A4D) % kShards]->Contains(key);
  }

  // The hash-once pipeline, scalar: one boundary mix; the router slices
  // value() and the family derives its streams from the same HashedKey.
  bool Contains(HashedKey key) const {
    return shards[key.value() % kShards]->Contains(key);
  }

  std::vector<std::unique_ptr<Filter>> shards;
};

/// The hash-once batched pipeline (what ShardedFilter::ContainsMany does
/// under its locks): mix every key once into scratch, group by shard,
/// then hand each shard one contiguous sub-batch for its prefetch
/// pipeline, scattering results back by original index.
struct BatchScratch {
  std::vector<std::vector<HashedKey>> grouped{kShards};
  std::vector<std::vector<size_t>> index{kShards};
  std::vector<uint8_t> shard_out;

  uint64_t Lookup(const BareSharded& f, std::span<const uint64_t> keys,
                  size_t batch, uint8_t* out) {
    for (size_t base = 0; base < keys.size(); base += batch) {
      const size_t m = std::min(batch, keys.size() - base);
      for (size_t s = 0; s < kShards; ++s) {
        grouped[s].clear();
        index[s].clear();
      }
      for (size_t i = 0; i < m; ++i) {
        const HashedKey hk(keys[base + i]);  // The one mix per key.
        const size_t s = hk.value() % kShards;
        grouped[s].push_back(hk);
        index[s].push_back(base + i);
      }
      for (size_t s = 0; s < kShards; ++s) {
        if (grouped[s].empty()) continue;
        shard_out.resize(grouped[s].size());
        f.shards[s]->ContainsMany(grouped[s], shard_out.data());
        for (size_t i = 0; i < index[s].size(); ++i) {
          out[index[s][i]] = shard_out[i];
        }
      }
    }
    uint64_t hits = 0;
    for (size_t i = 0; i < keys.size(); ++i) hits += out[i];
    return hits;
  }
};

void RunShardedFamily(const std::string& family, const ShardFactory& make,
                      uint64_t n, const std::vector<uint64_t>& keys,
                      const std::vector<uint64_t>& queries) {
  // Two filter states: one populated through legacy routing, one through
  // hash-once routing, so each pipeline queries the placement it built.
  BareSharded legacy(n, make);
  for (uint64_t k : keys) {
    legacy.shards[Hash64(k, 0x5A4D) % kShards]->Insert(k);
  }
  BareSharded current(n, make);
  for (uint64_t k : keys) {
    const HashedKey hk(k);
    current.shards[hk.value() % kShards]->Insert(hk);
  }

  uint64_t hits_legacy = 0;
  const double t_legacy = BestSeconds(kReps, [&] {
    hits_legacy = 0;
    for (uint64_t k : queries) hits_legacy += legacy.LegacyContains(k);
  });
  const double legacy_mops = Mops(queries.size(), t_legacy);
  Record(family, "legacy-double-hash", n, legacy_mops, legacy_mops);

  uint64_t hits_scalar = 0;
  const double t_scalar = BestSeconds(kReps, [&] {
    hits_scalar = 0;
    for (uint64_t k : queries) hits_scalar += current.Contains(HashedKey(k));
  });
  Record(family, "hash-once-scalar", n, Mops(queries.size(), t_scalar),
         legacy_mops);

  std::vector<uint8_t> out(queries.size());
  BatchScratch scratch;
  uint64_t hits_batch = 0;
  const double t_batch128 = BestSeconds(kReps, [&] {
    hits_batch = scratch.Lookup(current, queries, 128, out.data());
  });
  Record(family, "hash-once-batch128", n, Mops(queries.size(), t_batch128),
         legacy_mops);
  const double t_batchfull = BestSeconds(kReps, [&] {
    hits_batch = scratch.Lookup(current, queries, queries.size(), out.data());
  });
  Record(family, "hash-once-batchfull", n, Mops(queries.size(), t_batchfull),
         legacy_mops);

  // Routing differs between the two pipelines, so shard membership (and
  // hence which negatives false-positive) differs — but no pipeline may
  // lose a key: every positive query must hit in every mode, and the
  // batched path must agree with the scalar path bit for bit.
  if (hits_legacy < keys.size() || hits_scalar < keys.size() ||
      hits_batch != hits_scalar) {
    std::fprintf(stderr, "FATAL: %s hit-count invariant broken\n",
                 family.c_str());
    std::exit(1);
  }
}

void RunSize(uint64_t n) {
  std::printf("n = %llu keys (%s)\n", static_cast<unsigned long long>(n),
              n >= (uint64_t{1} << 23) ? "out-of-LLC" : "in-cache");
  const auto keys = GenerateDistinctKeys(n, 91);
  const auto negatives = GenerateNegativeKeys(keys, n, 92);
  const auto queries = MixedQueries(keys, negatives);

  RunPrimitives(keys);
  RunShardedFamily("sharded-blbloom",
                   [](uint64_t cap) -> std::unique_ptr<Filter> {
                     return std::make_unique<BlockedBloomFilter>(cap, 10.0);
                   },
                   n, keys, queries);
  RunShardedFamily("sharded-cuckoo",
                   [](uint64_t cap) -> std::unique_ptr<Filter> {
                     return std::make_unique<CuckooFilter>(cap, 12);
                   },
                   n, keys, queries);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report("hash", args);
  g_report = &report;
  RunSize(uint64_t{1} << 20);
  if (!args.quick) RunSize(uint64_t{1} << 23);
  return report.Finish();
}
