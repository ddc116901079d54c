// Experiment E18 (DESIGN.md §4): batched (prefetch-pipelined) vs scalar
// probes across the filter hierarchy. Paper claim (§1.1): filter probes
// are cache-miss-bound, and real deployments (LSM compaction, join
// pre-filters, k-mer lookup) query keys in batches — hashing a batch up
// front, prefetching every target cache line, then probing hides DRAM
// latency that the traditional one-key-at-a-time loop eats per query.
//
// It also carries E3 (§1.1: traditional Bloom usage "leaves performance
// on the table"): at the in-cache size every family's scalar lookups of
// stored and of absent keys are timed apart, beside xor and ribbon, which
// are built once from the whole key set instead of inserted into.
//
// Usage: bench_batch [--quick] [--json=PATH]
//   --quick      only the in-cache size (1M keys); default also runs the
//                out-of-LLC size (16M keys).
//   --json=PATH  write machine-readable results (BENCH_batch.json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "bloom/bloom_filter.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "quotient/quotient_filter.h"
#include "simd/dispatch.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

constexpr int kReps = 3;

/// The batch path exists to be faster: a full-batch lookup slower than
/// the scalar loop is a regression, not a tradeoff — for every family at
/// every size. 3% grace absorbs timer noise on a shared machine
/// (min-of-3 already strips most of it); a real regression (the
/// historical cuckoo 0.959x) sits right at the line, so the gate would
/// have caught it. The batch{8,32,128} sweep rows are informational
/// only: sub-batch per-call overhead is dominated by the host's
/// call/dispatch cost (on the 1-CPU CI container even the untouched
/// classic-bloom batch8 runs ~0.5x scalar), so gating them would test
/// the machine, not the code. E3's scalar rows are not gated either.
constexpr double kTolerance = 0.97;

struct Streams {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> negatives;
  std::vector<uint64_t> mixed;
};

/// Prints one row and records its Mops and its speedup over the scalar
/// row of the same (filter, n, op); returns the speedup.
double Record(Report& report, const std::string& filter, uint64_t n,
              const std::string& op, const std::string& mode, double mops,
              double scalar_mops) {
  const double speedup = scalar_mops > 0 ? mops / scalar_mops : 0.0;
  report.Add({{"filter", filter}, {"n", n}, {"op", op}, {"mode", mode}},
             {{"mops", "Mops", mops}, {"speedup", "x", speedup}});
  std::printf("  %-14s n=%-9llu %-7s %-8s %9.2f Mops   %5.2fx\n",
              filter.c_str(), static_cast<unsigned long long>(n), op.c_str(),
              mode.c_str(), mops, speedup);
  return speedup;
}

/// E3: scalar lookups of only stored keys, then of only absent keys.
void RecordScalarLookups(Report& report, const std::string& name, uint64_t n,
                         const Filter& f, const Streams& s) {
  for (const auto& [query, stream] :
       {std::pair{"positive", &s.keys}, std::pair{"negative", &s.negatives}}) {
    uint64_t hits = 0;
    const double t =
        BestSeconds(kReps, [&] { hits = ScalarLookup(f, *stream); });
    if (stream == &s.keys && hits != s.keys.size()) {
      std::fprintf(stderr, "FATAL: %s lost %llu stored keys\n", name.c_str(),
                   static_cast<unsigned long long>(s.keys.size() - hits));
      std::exit(1);
    }
    const double mops = Mops(stream->size(), t);
    report.Add({{"filter", name},
                {"n", n},
                {"op", "lookup"},
                {"mode", "scalar"},
                {"query", query}},
               {{"mops", "Mops", mops}});
    std::printf("  %-14s n=%-9llu lookup  %-8s %9.2f Mops   hit rate %.4f\n",
                name.c_str(), static_cast<unsigned long long>(n), query, mops,
                static_cast<double>(hits) / stream->size());
  }
}

/// E3's static families: one build from the whole key set, then lookups.
void RunStaticFamily(Report& report, const std::string& name,
                     const std::function<std::unique_ptr<Filter>()>& build,
                     uint64_t n, const Streams& s) {
  std::unique_ptr<Filter> f;
  const double mops = Mops(
      s.keys.size(),
      BestSeconds(kReps, [&] { f.reset(); }, [&] { f = build(); }));
  Record(report, name, n, "build", "scalar", mops, mops);
  RecordScalarLookups(report, name, n, *f, s);
}

/// Returns false when the full-batch lookup falls under kTolerance x
/// scalar.
bool RunFamily(Report& report, const std::string& name,
               const std::function<std::unique_ptr<Filter>()>& make,
               uint64_t n, const Streams& s, bool e3) {
  const std::vector<uint64_t>& keys = s.keys;
  const std::vector<uint64_t>& queries = s.mixed;
  // Insert: scalar loop vs one InsertMany over the whole key set. Like the
  // lookups below, each mode is timed kReps times on a fresh filter and the
  // best run kept (min-time strips co-tenant cache contention on this
  // shared machine from both sides of the comparison equally).
  std::unique_ptr<Filter> scalar_f;
  const double ins_scalar = Mops(
      keys.size(),
      BestSeconds(kReps, [&] { scalar_f = make(); },
                  [&] { for (uint64_t k : keys) scalar_f->Insert(k); }));
  Record(report, name, n, "insert", "scalar", ins_scalar, ins_scalar);

  std::unique_ptr<Filter> batch_f;
  const double t_ins_batch = BestSeconds(
      kReps, [&] { batch_f = make(); }, [&] { batch_f->InsertMany(keys); });
  Record(report, name, n, "insert", "batch", Mops(keys.size(), t_ins_batch),
         ins_scalar);

  // Lookup on the scalar-built filter (identical state either way for the
  // Bloom variants; for fingerprint filters the batch-built one differs
  // only in kick order). Each mode is timed kReps times and the best run
  // kept.
  const Filter& f = *scalar_f;
  uint64_t hits_scalar = 0;
  const double scalar_mops = Mops(
      queries.size(),
      BestSeconds(kReps, [&] { hits_scalar = ScalarLookup(f, queries); }));
  Record(report, name, n, "lookup", "scalar", scalar_mops, scalar_mops);
  if (e3) RecordScalarLookups(report, name, n, f, s);

  // The full batch, then the pipeline-depth sweep: how big must the
  // caller's batch be?
  std::vector<uint8_t> out(queries.size());
  bool ok = true;
  for (size_t b : {queries.size(), size_t{8}, size_t{32}, size_t{128}}) {
    const std::string mode =
        b == queries.size() ? "batch" : "batch" + std::to_string(b);
    uint64_t hits = 0;
    const double t = BestSeconds(
        kReps, [&] { hits = BatchedLookup(f, queries, b, out.data()); });
    if (hits != hits_scalar) {
      std::fprintf(stderr, "FATAL: %s %s/scalar hit mismatch (%llu vs %llu)\n",
                   name.c_str(), mode.c_str(),
                   static_cast<unsigned long long>(hits),
                   static_cast<unsigned long long>(hits_scalar));
      std::exit(1);
    }
    const double speedup = Record(report, name, n, "lookup", mode,
                                  Mops(queries.size(), t), scalar_mops);
    // Quotient at the in-cache size sits below its 4 MiB batching
    // threshold, so both modes run the identical scalar loop (DESIGN §7,
    // E18 "fallback parity") — a ratio of pure timer noise that cannot
    // regress and should not gate.
    const bool gated = mode == "batch" &&
                       (name != "quotient" || n >= (uint64_t{1} << 24));
    if (gated && speedup < kTolerance) {
      std::fprintf(stderr,
                   "REGRESSION: %s n=%llu lookup batch is %.3fx scalar "
                   "(< %.2f)\n",
                   name.c_str(), static_cast<unsigned long long>(n), speedup,
                   kTolerance);
      ok = false;
    }
  }
  return ok;
}

/// Runs every family at `n` keys, plus E3's rows when `e3` is set; returns
/// false when any family fails the batch >= scalar gate.
bool RunSize(Report& report, uint64_t n, bool e3) {
  std::printf("n = %llu keys (%s)\n", static_cast<unsigned long long>(n),
              n >= (uint64_t{1} << 24) ? "out-of-LLC" : "in-cache");
  Streams s;
  s.keys = GenerateDistinctKeys(n, 77);
  s.negatives = GenerateNegativeKeys(s.keys, n, 78);
  s.mixed = MixedQueries(s.keys, s.negatives);

  bool ok = true;
  ok &= RunFamily(report, "bloom",
                  [n] { return std::make_unique<BloomFilter>(n, 10.0); }, n, s,
                  e3);
  ok &= RunFamily(report, "blocked-bloom",
                  [n] { return std::make_unique<BlockedBloomFilter>(n, 10.0); },
                  n, s, e3);
  ok &= RunFamily(report, "cuckoo",
                  [n] { return std::make_unique<CuckooFilter>(n, 12); }, n, s,
                  e3);
  ok &= RunFamily(report, "quotient",
                  [n] {
                    return std::make_unique<QuotientFilter>(
                        QuotientFilter::ForCapacity(n, 0.01));
                  },
                  n, s, e3);
  ok &= RunFamily(
      report, "sharded",
      [n] {
        return std::make_unique<ShardedFilter>(
            n, 16, [](uint64_t cap) -> std::unique_ptr<Filter> {
              return std::make_unique<BlockedBloomFilter>(cap, 10.0);
            });
      },
      n, s, e3);
  if (e3) {
    RunStaticFamily(report, "xor",
                    [&s] { return std::make_unique<XorFilter>(s.keys, 12); },
                    n, s);
    RunStaticFamily(report, "ribbon",
                    [&s] { return std::make_unique<RibbonFilter>(s.keys, 12); },
                    n, s);
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report("batch", args);
  std::printf("active kernel: %.*s\n\n",
              static_cast<int>(simd::ActiveIsaName().size()),
              simd::ActiveIsaName().data());
  bool ok = RunSize(report, uint64_t{1} << 20, /*e3=*/true);
  if (!args.quick) ok &= RunSize(report, uint64_t{1} << 24, /*e3=*/false);
  if (ok) {
    std::printf(
        "full-batch lookup >= scalar for every family at every size "
        "(tolerance %.2f)\n",
        kTolerance);
  }
  return report.Finish(ok);
}
