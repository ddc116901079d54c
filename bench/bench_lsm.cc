// Experiment E9 (DESIGN.md §4): LSM-tree application (§3.1), plus the
// E24 lifecycle numbers (DESIGN.md §13).
//
// Paper claims: per-file filters let point lookups skip files; Monkey
// drops the expected negative-lookup cost from O(eps * #levels) to
// O(eps); range filters avert the I/O of empty range scans. The
// lifecycle section measures what the persistent manifest buys: opening
// a tree from committed filter snapshots vs. rebuilding the same tree by
// re-ingesting every key.
//
// Usage: bench_lsm [--quick] [--json=PATH]
//   --quick      smaller tree (200k keys; default 1M).
//   --json=PATH  machine-readable results (BENCH_lsm.json).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/lsm/lsm_tree.h"
#include "bench_util.h"
#include "harness.h"
#include "util/random.h"
#include "workload/generators.h"

using namespace bbf::lsm;
using bbf::bench::Mops;
using bbf::bench::Report;
using bbf::bench::Seconds;

namespace {

Report* g_report = nullptr;

void RunConfig(const char* name, const LsmOptions& options,
               const std::vector<uint64_t>& keys,
               const std::vector<uint64_t>& negatives) {
  LsmTree db(options);
  for (uint64_t k : keys) db.Put(k, k);

  db.ResetIo();
  uint64_t hits = 0;
  const double t_neg = Seconds([&] {
    for (uint64_t k : negatives) hits += db.Get(k).has_value();
  });
  const double neg_ios =
      static_cast<double>(db.io().data_reads) / negatives.size();
  // Every filter probe that passed on a negative key was a false
  // positive; `false_probes` counts exactly those across all runs.
  const double fpr = static_cast<double>(db.io().false_probes +
                                         db.io().quarantined_reads) /
                     negatives.size();
  if (hits != 0) {
    std::fprintf(stderr, "FATAL: %s returned values for negative keys\n",
                 name);
    std::exit(1);
  }

  db.ResetIo();
  for (size_t i = 0; i < 10000; ++i) db.Get(keys[i * 37 % keys.size()]);
  const double pos_ios = static_cast<double>(db.io().data_reads) / 10000;

  db.ResetIo();
  bbf::SplitMix64 rng(5);
  const int kScans = 3000;
  for (int i = 0; i < kScans; ++i) {
    const uint64_t lo = rng.Next();
    db.Scan(lo, lo + 255);
  }
  const double scan_ios = static_cast<double>(db.io().data_reads) / kScans;

  const double neg_mops = Mops(negatives.size(), t_neg);
  const double filter_mib = db.TotalFilterBits() / 8.0 / (1 << 20);
  const double w_amp = db.WriteAmplification();
  g_report->Add({{"config", name}},
                {{"neg_ios", "reads/get", neg_ios},
                 {"pos_ios", "reads/get", pos_ios},
                 {"scan_ios", "reads/scan", scan_ios},
                 {"fpr", "ratio", fpr},
                 {"neg_mops", "Mops", neg_mops},
                 {"filter_mib", "MiB", filter_mib},
                 {"write_amp", "x", w_amp}});
  std::printf("%-26s | %8.4f | %8.4f | %8.4f | %8.5f | %8.2f | %9.2f | %6.1f\n",
              name, neg_ios, pos_ios, scan_ios, fpr, neg_mops, filter_mib,
              w_amp);
}

/// E24: persist a tree under mixed insert/flush/compact load, then time
/// LsmTree::Open (manifest + filter snapshots) against rebuilding the
/// same tree by re-ingesting every key (every filter reconstructed).
void RunLifecycle(const std::vector<uint64_t>& keys) {
  std::printf("\n== E24: recovery from manifest vs rebuild from keys ==\n\n");
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bbf_bench_lsm").string();
  std::filesystem::remove_all(dir);

  LsmOptions o;
  o.memtable_entries = 4096;
  o.size_ratio = 4;
  o.point_bits_per_key = 10;
  o.range_filter = RangeFilterKind::kPrefixBloom;
  o.dir = dir;
  {
    auto db = LsmTree::Open(o);
    if (db == nullptr) {
      std::fprintf(stderr, "FATAL: cannot create %s\n", dir.c_str());
      std::exit(1);
    }
    const double t_ingest = Seconds([&] {
      for (uint64_t k : keys) db->Put(k, k);
    });
    std::printf("  ingest (persistent, %llu keys): %.3f s  (%.2f Mops, "
                "%llu generations)\n",
                static_cast<unsigned long long>(keys.size()), t_ingest,
                Mops(keys.size(), t_ingest),
                static_cast<unsigned long long>(db->generation()));
  }

  std::unique_ptr<LsmTree> recovered;
  const double t_recover = Seconds([&] { recovered = LsmTree::Open(o); });
  if (recovered == nullptr || recovered->TotalEntries() == 0) {
    std::fprintf(stderr, "FATAL: recovery failed\n");
    std::exit(1);
  }
  g_report->Add({{"mode", "recovery"}, {"keys", keys.size()}},
                {{"seconds", "s", t_recover}});

  LsmOptions volatile_o = o;
  volatile_o.dir.clear();
  std::unique_ptr<LsmTree> rebuilt;
  const double t_rebuild = Seconds([&] {
    rebuilt = std::make_unique<LsmTree>(volatile_o);
    for (uint64_t k : keys) rebuilt->Put(k, k);
  });
  g_report->Add({{"mode", "rebuild"}, {"keys", keys.size()}},
                {{"seconds", "s", t_rebuild}});

  std::printf("  open from manifest: %8.3f s   (filters loaded: snapshots)\n",
              t_recover);
  std::printf("  rebuild from keys:  %8.3f s   (filters reconstructed)\n",
              t_rebuild);
  std::printf("  speedup: %.1fx\n",
              t_recover > 0 ? t_rebuild / t_recover : 0.0);
  std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bbf::bench::ParseArgs(argc, argv);
  Report report("lsm", args);
  g_report = &report;

  std::printf("== E9: LSM point lookups and range scans (simulated I/O) ==\n\n");
  const uint64_t n = args.quick ? 200000 : 1000000;
  const auto keys = bbf::GenerateDistinctKeys(n, 3);
  const auto negatives = bbf::GenerateNegativeKeys(keys, n / 20, 4);

  LsmOptions base;
  base.memtable_entries = 2048;
  base.size_ratio = 4;
  base.point_bits_per_key = 8;

  std::printf("%-26s | %-8s | %-8s | %-8s | %-8s | %-8s | %-9s | %s\n",
              "config", "neg-get", "pos-get", "scan", "fpr", "neg-mops",
              "filterMiB", "w-amp");
  std::printf("%s\n", std::string(108, '-').c_str());

  {
    LsmOptions o = base;
    o.point_filter = PointFilterKind::kNone;
    o.memtable_filter = MemtableFilterKind::kNone;
    RunConfig("no filters", o, keys, negatives);
  }
  RunConfig("bloom uniform", base, keys, negatives);
  {
    LsmOptions o = base;
    o.allocation = FilterAllocation::kMonkey;
    RunConfig("bloom monkey", o, keys, negatives);
  }
  {
    LsmOptions o = base;
    o.point_filter = PointFilterKind::kXor;
    RunConfig("xor uniform", o, keys, negatives);
  }
  {
    LsmOptions o = base;
    o.point_filter = PointFilterKind::kRibbon;
    RunConfig("ribbon uniform", o, keys, negatives);
  }
  {
    LsmOptions o = base;
    o.point_filter = PointFilterKind::kQuotient;
    RunConfig("quotient uniform", o, keys, negatives);
  }
  {
    LsmOptions o = base;
    o.tiering = true;
    RunConfig("bloom tiered", o, keys, negatives);
  }
  {
    LsmOptions o = base;
    o.range_filter = RangeFilterKind::kGrafite;
    RunConfig("bloom + grafite", o, keys, negatives);
  }
  {
    LsmOptions o = base;
    o.range_filter = RangeFilterKind::kSurf;
    RunConfig("bloom + surf", o, keys, negatives);
  }
  {
    LsmOptions o = base;
    o.range_filter = RangeFilterKind::kSnarf;
    RunConfig("bloom + snarf", o, keys, negatives);
  }

  std::printf(
      "\nexpected shape (paper §3.1/[32]): uniform bloom leaves ~eps*levels\n"
      "I/Os per negative get; monkey ~eps; tiering trades lookup cost for\n"
      "write-amp; range filters collapse the empty-scan column.\n");

  RunLifecycle(keys);
  return report.Finish();
}
