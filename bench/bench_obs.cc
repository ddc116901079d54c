// Experiment E22 (DESIGN.md §4, §11): instrumentation overhead. The
// observability budget is <= 5% on the batched lookup hot path — the
// path real deployments sit on — so this bench runs the bench_batch
// workload twice per family, once on the bare filter and once wrapped in
// obs::InstrumentedFilter, and reports the throughput delta.
//
// Usage: bench_obs [--quick] [--json=PATH]
//   --quick      only the in-cache size (1M keys); default also runs the
//                out-of-LLC size (16M keys) that the 5% gate is judged on.
//   --json=PATH  write machine-readable results (BENCH_obs.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "bloom/bloom_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "obs/instrumented.h"
#include "quotient/quotient_filter.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

Report* g_report = nullptr;

void Record(const std::string& filter, uint64_t n, const std::string& op,
            double raw_mops, double inst_mops) {
  const double overhead =
      raw_mops > 0 ? (raw_mops - inst_mops) / raw_mops * 100.0 : 0.0;
  g_report->Add({{"filter", filter}, {"n", n}, {"op", op}},
                {{"raw_mops", "Mops", raw_mops},
                 {"instrumented_mops", "Mops", inst_mops},
                 {"overhead_pct", "%", overhead}});
  std::printf("  %-14s n=%-9llu %-7s raw %9.2f Mops   inst %9.2f Mops   "
              "overhead %+6.2f%%\n",
              filter.c_str(), static_cast<unsigned long long>(n), op.c_str(),
              raw_mops, inst_mops, overhead);
  // The E22 gate: instrumented batched lookup within 5% of raw on
  // blocked-bloom. Warn-only here — the committed BENCH_obs.json is the
  // record; CI machines are too noisy to gate hard.
  if (filter == "blocked-bloom" && op == "lookup" && overhead > 5.0) {
    std::fprintf(stderr,
                 "WARNING: blocked-bloom lookup overhead %.2f%% exceeds the "
                 "5%% budget (n=%llu)\n",
                 overhead, static_cast<unsigned long long>(n));
  }
}

/// Times batched insert + batched lookup on `make()`-built filters,
/// min-of-kReps each (strips co-tenant noise from both sides equally),
/// and returns {insert_mops, lookup_mops}. The built filter from the last
/// insert rep serves the lookups, so raw and instrumented runs probe
/// identically-shaped tables.
struct Throughput {
  double insert_mops;
  double lookup_mops;
};

Throughput RunOne(const std::function<std::unique_ptr<Filter>()>& make,
                  const std::vector<uint64_t>& keys,
                  const std::vector<uint64_t>& queries, uint64_t* hits_out) {
  constexpr int kInsertReps = 3;
  // The 5% lookup gate needs more noise suppression than a 3-rep min
  // gives on a shared machine; lookups are cheap enough to rerun.
  constexpr int kLookupReps = 5;
  std::unique_ptr<Filter> f;
  const double t_insert = BestSeconds(
      kInsertReps, [&] { f = make(); }, [&] { f->InsertMany(keys); });
  std::vector<uint8_t> out(queries.size());
  uint64_t hits = 0;
  const double t_lookup = BestSeconds(kLookupReps, [&] {
    hits = BatchedLookup(*f, queries, queries.size(), out.data());
  });
  *hits_out = hits;
  return {Mops(keys.size(), t_insert), Mops(queries.size(), t_lookup)};
}

void RunFamily(const std::string& name,
               const std::function<std::unique_ptr<Filter>()>& make,
               double epsilon, uint64_t n, const std::vector<uint64_t>& keys,
               const std::vector<uint64_t>& queries) {
  uint64_t hits_raw = 0;
  const Throughput raw = RunOne(make, keys, queries, &hits_raw);

  uint64_t hits_inst = 0;
  const Throughput inst = RunOne(
      [&make, epsilon]() -> std::unique_ptr<Filter> {
        return std::make_unique<obs::InstrumentedFilter>(make(), epsilon);
      },
      keys, queries, &hits_inst);

  // The decorator forwards every probe verbatim; a hit-count mismatch
  // means the instrumentation changed filter behaviour, not just speed.
  if (hits_raw != hits_inst) {
    std::fprintf(stderr, "FATAL: %s raw/instrumented hit mismatch (%llu vs %llu)\n",
                 name.c_str(), static_cast<unsigned long long>(hits_raw),
                 static_cast<unsigned long long>(hits_inst));
    std::exit(1);
  }

  Record(name, n, "insert", raw.insert_mops, inst.insert_mops);
  Record(name, n, "lookup", raw.lookup_mops, inst.lookup_mops);
}

void RunSize(uint64_t n) {
  std::printf("n = %llu keys (%s)\n", static_cast<unsigned long long>(n),
              n >= (uint64_t{1} << 24) ? "out-of-LLC" : "in-cache");
  const auto keys = GenerateDistinctKeys(n, 77);
  const auto negatives = GenerateNegativeKeys(keys, n, 78);
  const auto queries = MixedQueries(keys, negatives);

  RunFamily("blocked-bloom",
            [n] { return std::make_unique<BlockedBloomFilter>(n, 10.0); },
            /*epsilon=*/0.01, n, keys, queries);
  RunFamily("cuckoo", [n] { return std::make_unique<CuckooFilter>(n, 12); },
            /*epsilon=*/0.002, n, keys, queries);
  RunFamily("quotient",
            [n] {
              return std::make_unique<QuotientFilter>(
                  QuotientFilter::ForCapacity(n, 0.01));
            },
            /*epsilon=*/0.01, n, keys, queries);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report("obs", args);
  g_report = &report;
  RunSize(uint64_t{1} << 20);
  if (!args.quick) RunSize(uint64_t{1} << 24);
  return report.Finish();
}
