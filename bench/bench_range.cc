// Experiments E7 and E27 (DESIGN.md §4, §16): range filters (§2.5) and
// the dynamic-vs-static scenario sweep.
//
// E7 paper claims, three tables:
//   (a) FPR vs range length at a fixed space budget — Rosetta is strong on
//       short ranges and degrades to no filtering; SNARF/Grafite stay flat
//       until their design range; SuRF sits in between. Each row carries
//       the family's bits/key so FPR is never read without its space cost.
//   (c) Adversarial long-common-prefix keys — SuRF's space blows up,
//       Grafite's does not.
//   (d) ARF converges on a repeating workload and relapses on a shift.
//
// E27 scenario sweep (b): every family at a ~1% design point runs four
// workloads — uncorrelated empty ranges, correlated empty ranges (starts
// right after stored keys, the trie-killer), a mixed point/range stream,
// and an interleaved insert/query schedule where the static families must
// rebuild mid-stream while Memento absorbs inserts online. The sweep is
// gated: Memento must hold <= 1.5x its configured FPR under correlation,
// at least one static family must degrade >= 5x there, and nobody may
// return a false negative in the interleaved run. A violated gate exits
// non-zero so CI fails loudly.
//
// Usage: bench_range [--quick] [--json=PATH]
//   --quick      smaller key count (50k; default 200k).
//   --json=PATH  machine-readable results (BENCH_range.json).

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "range/arf.h"
#include "range/grafite.h"
#include "range/memento.h"
#include "range/prefix_bloom_range.h"
#include "range/rosetta.h"
#include "range/snarf.h"
#include "range/surf.h"
#include "util/bits.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace bbf;
using bbf::bench::Mops;
using bbf::bench::Seconds;

namespace {

struct Family {
  const char* name;
  bool dynamic;  // Supports online AddKey (no rebuilds needed).
  std::function<std::unique_ptr<RangeFilter>(const std::vector<uint64_t>&)>
      build;
};

// Every family configured to target ~1% FPR on short (<= 64) ranges, the
// same design points the range FPR-regression suite pins.
std::vector<Family> ScenarioFamilies() {
  return {
      {"prefix-bloom", false,
       [](const std::vector<uint64_t>& keys) -> std::unique_ptr<RangeFilter> {
         return std::make_unique<PrefixBloomRangeFilter>(keys, 48, 12.0);
       }},
      {"surf-real", false,
       [](const std::vector<uint64_t>& keys) -> std::unique_ptr<RangeFilter> {
         return std::make_unique<SurfFilter>(
             keys, SurfFilter::SuffixMode::kReal, 8);
       }},
      {"rosetta", false,
       [](const std::vector<uint64_t>& keys) -> std::unique_ptr<RangeFilter> {
         // 7 levels cover dyadic nodes of length-64 ranges.
         return std::make_unique<RosettaRangeFilter>(keys, 7, 36.0);
       }},
      {"snarf", false,
       [](const std::vector<uint64_t>& keys) -> std::unique_ptr<RangeFilter> {
         return std::make_unique<SnarfRangeFilter>(keys, 7);
       }},
      {"grafite", false,
       [](const std::vector<uint64_t>& keys) -> std::unique_ptr<RangeFilter> {
         // Collision chance ~ n * (L + 1) / 2^reduced_bits: size the
         // reduced universe from n so the design point tracks the key
         // count across rebuilds.
         const int bits = static_cast<int>(
             std::bit_width(std::max<uint64_t>(keys.size(), 1) * 6500));
         return std::make_unique<GrafiteRangeFilter>(keys, bits);
       }},
      {"memento", true,
       [](const std::vector<uint64_t>& keys) -> std::unique_ptr<RangeFilter> {
         if (keys.empty()) {
           // Online build from empty: each capacity doubling spends one
           // remainder bit (q+1 / r-1 keeps the stored fingerprint), so
           // provision headroom — r = 16 leaves ~0.4% FPR after seven
           // doublings instead of eroding to no filtering.
           return std::make_unique<MementoFilter>(/*q_bits=*/11,
                                                  /*r_bits=*/16);
         }
         auto f = std::make_unique<MementoFilter>(
             MementoFilter::ForCapacity(keys.size(), 0.01));
         for (uint64_t k : keys) f->AddKey(k);
         return f;
       }},
  };
}

struct ScenarioRow {
  std::string family;
  double bits_per_key = 0;
  double uncorr_fpr = 0;
  double corr_fpr = 0;
  double mixed_fpr = 0;
  double inter_fpr = 0;
  uint64_t inter_fn = 0;   // False negatives in the interleaved run: MUST be 0.
  uint64_t rebuilds = 0;   // Static rebuilds the interleaved run forced.
  double build_s = 0;      // Seconds spent building/rebuilding, interleaved.
  double query_mops = 0;   // Query throughput, uncorrelated scenario.
};

std::vector<ScenarioRow> g_rows;

struct FprResult {
  double fpr;
  double mops;
};

/// Empty-range FPR (and query rate) over `attempts` probes of length
/// `range_len`. Correlated starts begin one past a random stored key.
FprResult EmptyRangeFpr(const RangeFilter& f,
                        const std::vector<uint64_t>& keys,
                        const std::set<uint64_t>& key_set, uint64_t attempts,
                        uint64_t range_len, bool correlated, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  ranges.reserve(attempts);
  for (uint64_t i = 0; i < attempts; ++i) {
    const uint64_t lo =
        correlated ? keys[rng.NextBelow(keys.size())] + 1 : rng.Next();
    const uint64_t hi = lo + range_len - 1;
    if (hi < lo) continue;
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;  // Not empty; skip.
    ranges.emplace_back(lo, hi);
  }
  uint64_t fp = 0;
  const double t = Seconds([&] {
    for (const auto& [lo, hi] : ranges) fp += f.MayContainRange(lo, hi);
  });
  return {ranges.empty() ? 0.0 : static_cast<double>(fp) / ranges.size(),
          Mops(ranges.size(), t)};
}

/// Mixed stream: half point lookups, half length-64 ranges, all verified
/// empty, uniform starts.
double MixedStreamFpr(const RangeFilter& f,
                      const std::set<uint64_t>& key_set, uint64_t attempts,
                      uint64_t seed) {
  SplitMix64 rng(seed);
  uint64_t fp = 0;
  uint64_t total = 0;
  for (uint64_t i = 0; i < attempts; ++i) {
    const uint64_t lo = rng.Next();
    const uint64_t len = (i & 1) ? 1 : 64;
    const uint64_t hi = lo + len - 1;
    if (hi < lo) continue;
    const auto it = key_set.lower_bound(lo);
    if (it != key_set.end() && *it <= hi) continue;
    ++total;
    fp += len == 1 ? f.MayContain(lo) : f.MayContainRange(lo, hi);
  }
  return total == 0 ? 0.0 : static_cast<double>(fp) / total;
}

struct InterleavedResult {
  double fpr = 0;
  uint64_t false_negatives = 0;
  uint64_t rebuilds = 0;
  double build_s = 0;
};

/// Inserts arrive online with queries woven between them. The dynamic
/// family absorbs each insert in place; static families serve the filter
/// built at their last rebuild (every `rebuild_every` inserts) and are
/// only accountable for keys visible as of that rebuild. False negatives
/// are counted against the visible set and must be zero for everyone.
InterleavedResult InterleavedRun(const Family& family,
                                 const std::vector<uint64_t>& keys,
                                 uint64_t rebuild_every, uint64_t seed) {
  const auto ops = GenerateInterleavedRangeOps(
      keys, /*queries_per_insert=*/1.0, /*point_frac=*/0.5,
      /*range_len=*/64, ~uint64_t{0}, seed);
  InterleavedResult r;
  std::set<uint64_t> inserted;
  std::set<uint64_t> visible;
  std::unique_ptr<RangeFilter> filter;
  MementoFilter* memento = nullptr;
  if (family.dynamic) {
    r.build_s = Seconds([&] { filter = family.build({}); });
    memento = static_cast<MementoFilter*>(filter.get());
  }
  uint64_t since_rebuild = 0;
  uint64_t fp = 0;
  uint64_t empties = 0;
  for (const RangeOp& op : ops) {
    if (op.kind == RangeOp::Kind::kInsert) {
      inserted.insert(op.lo);
      if (family.dynamic) {
        memento->AddKey(op.lo);
        visible.insert(op.lo);
      } else if (++since_rebuild >= rebuild_every || !filter) {
        std::vector<uint64_t> sorted(inserted.begin(), inserted.end());
        r.build_s += Seconds([&] { filter = family.build(sorted); });
        visible = inserted;
        since_rebuild = 0;
        ++r.rebuilds;
      }
      continue;
    }
    const bool ans = op.kind == RangeOp::Kind::kPointQuery
                         ? filter->MayContain(op.lo)
                         : filter->MayContainRange(op.lo, op.hi);
    const auto it = visible.lower_bound(op.lo);
    if (it != visible.end() && *it <= op.hi) {
      r.false_negatives += !ans;
    } else {
      ++empties;
      fp += ans;
    }
  }
  r.fpr = empties == 0 ? 0.0 : static_cast<double>(fp) / empties;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bbf::bench::ParseArgs(argc, argv);
  bbf::bench::Report report("range", args);

  const uint64_t n = args.quick ? 50000 : 200000;
  const uint64_t attempts = args.quick ? 20000 : 50000;
  auto keys = GenerateDistinctKeys(n);
  // Interleaved inserts arrive in generation (random) order — feeding the
  // sorted vector would grow the key set as an ascending prefix of the
  // domain, a degenerate schedule that breaks learned models for reasons
  // that have nothing to do with being static.
  const std::vector<uint64_t> insert_order = keys;
  std::sort(keys.begin(), keys.end());
  const std::set<uint64_t> key_set(keys.begin(), keys.end());

  // (a) E7: FPR vs range length at a fixed space budget, with bits/key.
  std::printf("== E7: range filters ==\n\n");
  std::printf("(a) empty-range FPR vs range length (uniform starts)\n");
  struct NamedFilter {
    const char* name;
    std::unique_ptr<RangeFilter> filter;
  };
  std::vector<NamedFilter> wide;
  wide.push_back({"prefix-bloom", std::make_unique<PrefixBloomRangeFilter>(
                                      keys, 44, 16.0)});
  wide.push_back({"surf-real", std::make_unique<SurfFilter>(
                                   keys, SurfFilter::SuffixMode::kReal, 8)});
  wide.push_back({"rosetta",
                  std::make_unique<RosettaRangeFilter>(keys, 17, 17.0)});
  wide.push_back({"snarf", std::make_unique<SnarfRangeFilter>(keys, 12)});
  wide.push_back({"grafite",
                  std::make_unique<GrafiteRangeFilter>(keys, 42, 17)});
  std::printf("%-14s", "filter");
  for (int lg : {0, 4, 8, 12, 16}) std::printf("  len=2^%-3d", lg);
  std::printf("  bits/key\n");
  for (auto& nf : wide) {
    std::printf("%-14s", nf.name);
    for (int lg : {0, 4, 8, 12, 16}) {
      std::printf("  %8.4f",
                  EmptyRangeFpr(*nf.filter, keys, key_set, attempts,
                                uint64_t{1} << lg, false, 100 + lg)
                      .fpr);
    }
    std::printf("  %8.2f\n", static_cast<double>(nf.filter->SpaceBits()) / n);
  }
  wide.clear();

  // (b) E27: the scenario sweep at matched ~1% design points.
  std::printf("\n== E27: dynamic vs static scenario sweep (len-64 ranges, "
              "%llu keys) ==\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%-14s %9s %11s %11s %11s %11s %9s %9s %9s %9s\n", "family",
              "bits/key", "uncorr_fpr", "corr_fpr", "mixed_fpr", "inter_fpr",
              "inter_fn", "rebuilds", "build_s", "q_mops");
  const uint64_t rebuild_every = std::max<uint64_t>(n / 16, 1);
  for (const Family& family : ScenarioFamilies()) {
    ScenarioRow row;
    row.family = family.name;
    auto filter = family.build(keys);
    row.bits_per_key = static_cast<double>(filter->SpaceBits()) / n;
    const FprResult uncorr =
        EmptyRangeFpr(*filter, keys, key_set, attempts, 64, false, 200);
    row.uncorr_fpr = uncorr.fpr;
    row.query_mops = uncorr.mops;
    row.corr_fpr =
        EmptyRangeFpr(*filter, keys, key_set, attempts, 64, true, 201).fpr;
    row.mixed_fpr = MixedStreamFpr(*filter, key_set, attempts, 202);
    filter.reset();
    const InterleavedResult inter =
        InterleavedRun(family, insert_order, rebuild_every, 203);
    row.inter_fpr = inter.fpr;
    row.inter_fn = inter.false_negatives;
    row.rebuilds = inter.rebuilds;
    row.build_s = inter.build_s;
    g_rows.push_back(row);
    report.Add({{"family", row.family}},
               {{"bits_per_key", "bits", row.bits_per_key},
                {"uncorr_fpr", "ratio", row.uncorr_fpr},
                {"corr_fpr", "ratio", row.corr_fpr},
                {"mixed_fpr", "ratio", row.mixed_fpr},
                {"inter_fpr", "ratio", row.inter_fpr},
                {"inter_false_negatives", "count", row.inter_fn},
                {"rebuilds", "count", row.rebuilds},
                {"build_s", "s", row.build_s},
                {"query_mops", "Mops", row.query_mops}});
    std::printf("%-14s %9.2f %11.5f %11.5f %11.5f %11.5f %9llu %9llu %9.3f "
                "%9.3f\n",
                row.family.c_str(), row.bits_per_key, row.uncorr_fpr,
                row.corr_fpr, row.mixed_fpr, row.inter_fpr,
                static_cast<unsigned long long>(row.inter_fn),
                static_cast<unsigned long long>(row.rebuilds), row.build_s,
                row.query_mops);
  }

  // (c) E7: adversarial keys — pairs sharing long prefixes.
  std::printf("\n(c) space under adversarial long-common-prefix keys\n");
  std::vector<uint64_t> adversarial;
  SplitMix64 rng(300);
  for (uint64_t i = 0; i < n / 2; ++i) {
    const uint64_t base = rng.Next() & ~LowMask(8);
    adversarial.push_back(base);
    adversarial.push_back(base | 1);
  }
  std::sort(adversarial.begin(), adversarial.end());
  adversarial.erase(std::unique(adversarial.begin(), adversarial.end()),
                    adversarial.end());
  SurfFilter surf_benign(keys, SurfFilter::SuffixMode::kBase, 0);
  SurfFilter surf_adv(adversarial, SurfFilter::SuffixMode::kBase, 0);
  GrafiteRangeFilter graf_benign(keys, 42, 17);
  GrafiteRangeFilter graf_adv(adversarial, 42, 17);
  std::printf("%-14s %16s %16s\n", "filter", "benign bits/key",
              "adversarial");
  std::printf("%-14s %16.2f %16.2f\n", "surf",
              static_cast<double>(surf_benign.SpaceBits()) / keys.size(),
              static_cast<double>(surf_adv.SpaceBits()) /
                  adversarial.size());
  std::printf("%-14s %16.2f %16.2f\n", "grafite",
              static_cast<double>(graf_benign.SpaceBits()) / keys.size(),
              static_cast<double>(graf_adv.SpaceBits()) /
                  adversarial.size());

  // (d) E7: ARF — trainable, workload-bound.
  std::printf("\n(d) ARF: empty-range FPR before/after training, then under "
              "a workload shift\n");
  {
    ArfRangeFilter arf(1 << 18);
    SplitMix64 arf_rng(400);
    // A *repeating* workload (ARF's sweet spot) plus a shifted one.
    auto make_workload = [&](uint64_t region_base) {
      std::vector<std::pair<uint64_t, uint64_t>> w;
      while (w.size() < 1000) {
        const uint64_t lo = region_base + (arf_rng.Next() >> 2);
        const uint64_t hi = lo + 255;
        if (hi < lo) continue;
        const auto it = key_set.lower_bound(lo);
        if (it != key_set.end() && *it <= hi) continue;  // Keep empty only.
        w.emplace_back(lo, hi);
      }
      return w;
    };
    const auto stable = make_workload(0);
    const auto moved = make_workload(uint64_t{3} << 62);
    auto run_phase = [&](const auto& workload, bool train) {
      uint64_t fp = 0;
      for (const auto& [lo, hi] : workload) {
        if (arf.MayContainRange(lo, hi)) {
          ++fp;
          if (train) arf.Train(lo, hi, true);
        }
      }
      return static_cast<double>(fp) / workload.size();
    };
    const double untrained = run_phase(stable, /*train=*/true);
    const double trained = run_phase(stable, /*train=*/false);
    const double shifted = run_phase(moved, /*train=*/false);
    std::printf("  untrained %.4f -> trained %.4f -> after workload shift "
                "%.4f   (%zu nodes)\n",
                untrained, trained, shifted, arf.num_nodes());
  }

  // Acceptance gates (DESIGN.md §16): fail loudly if the dynamic-range
  // story regresses.
  int violations = 0;
  const double min_measurable = 1.0 / static_cast<double>(attempts);
  double worst_static_ratio = 0;
  for (const ScenarioRow& r : g_rows) {
    if (r.inter_fn != 0) {
      std::fprintf(stderr,
                   "GATE: %s returned %llu false negatives in the "
                   "interleaved run\n",
                   r.family.c_str(),
                   static_cast<unsigned long long>(r.inter_fn));
      ++violations;
    }
    if (r.family == "memento") {
      if (r.corr_fpr > 1.5 * 0.01) {
        std::fprintf(stderr,
                     "GATE: memento correlated FPR %.5f exceeds 1.5x the "
                     "configured 1%%\n",
                     r.corr_fpr);
        ++violations;
      }
    } else {
      worst_static_ratio =
          std::max(worst_static_ratio,
                   r.corr_fpr / std::max(r.uncorr_fpr, min_measurable));
    }
  }
  if (worst_static_ratio < 5.0) {
    std::fprintf(stderr,
                 "GATE: no static family degraded >= 5x under correlation "
                 "(worst %.1fx) — the negative control lost its teeth\n",
                 worst_static_ratio);
    ++violations;
  }
  if (violations != 0) {
    std::fprintf(stderr, "%d acceptance gate(s) violated\n", violations);
    return report.Finish(false);
  }

  std::printf(
      "\nexpected shape (paper §2.5 / DESIGN.md §16): rosetta's FPR races\n"
      "to 1 as ranges grow; grafite/snarf flat into their design range;\n"
      "correlation breaks the trie families while grafite and memento hold\n"
      "their configured FPR; memento absorbs interleaved inserts with zero\n"
      "rebuilds where every static family pays repeated construction; surf's\n"
      "space explodes on adversarial keys; ARF converges on a repeating\n"
      "workload and relapses when it shifts.\n");
  return report.Finish();
}
