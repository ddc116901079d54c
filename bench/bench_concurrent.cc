// Experiments E16 and E20 (DESIGN.md §4): the serving layer under thread
// scaling, at 1/2/4/8 worker threads.
//
// E16 (§1, feature 6: modern filters "scale with the number of threads"):
// 80% lookups / 20% inserts of random stored keys against a cuckoo filter
// behind one global lock, and against a 32-shard ShardedFilter.
//
// E20: ShardedFilter (cuckoo inner, chain policy) in scalar and batch
// mode, for inserts and lookups apart, so the batch-vs-scalar gap and the
// thread-scaling curve land in one table.
//
// Usage: bench_concurrent [--quick] [--json=PATH]
//   --quick      256k keys instead of 1M, and a quarter of E16's ops.
//   --json=PATH  write machine-readable results (BENCH_concurrent.json).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "harness.h"
#include "workload/generators.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

constexpr size_t kBatch = 128;  // Sub-batch for the pipelined modes.

/// Prints one row and records its Mops and its speedup over `base_mops`,
/// the 1-thread scalar row of the same filter and op.
void Record(Report& report, const std::string& filter, int threads,
            uint64_t n, const std::string& op, const std::string& mode,
            double mops, double base_mops) {
  const double speedup = base_mops > 0 ? mops / base_mops : 0.0;
  report.Add({{"filter", filter},
              {"threads", threads},
              {"n", n},
              {"op", op},
              {"mode", mode}},
             {{"mops", "Mops", mops}, {"speedup", "x", speedup}});
  std::printf("  %-14s threads=%d n=%-9llu %-7s %-7s %9.2f Mops   %5.2fx\n",
              filter.c_str(), threads, static_cast<unsigned long long>(n),
              op.c_str(), mode.c_str(), mops, speedup);
}

std::unique_ptr<ShardedFilter> MakeFilter(uint64_t n) {
  // 16 shards: enough lock striping for 8 threads; chain policy keeps the
  // bench honest if a shard saturates early.
  return std::make_unique<ShardedFilter>(
      n, 16, [](uint64_t cap) -> std::unique_ptr<Filter> {
        return std::make_unique<CuckooFilter>(cap, 12);
      });
}

// Splits `keys` into `threads` contiguous chunks and runs
// `fn(chunk, len)` on each in its own thread, until all have finished.
template <typename Fn>
void DriveChunks(const std::vector<uint64_t>& keys, int threads, Fn fn) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  const size_t per = keys.size() / threads;
  for (int t = 0; t < threads; ++t) {
    const size_t begin = t * per;
    const size_t end = t + 1 == threads ? keys.size() : begin + per;
    workers.emplace_back(
        [&fn, &keys, begin, end] { fn(&keys[begin], end - begin); });
  }
  for (auto& w : workers) w.join();
}

void RunThreads(Report& report, uint64_t n, int threads,
                const std::vector<uint64_t>& keys,
                const std::vector<uint64_t>& queries, double base[2]) {
  constexpr int kReps = 3;
  constexpr const char* kFilter = "sharded-cuckoo";

  // Insert, scalar: every thread loops Insert over its chunk.
  std::unique_ptr<ShardedFilter> built;
  const auto scalar_inserts = [&](const uint64_t* chunk, size_t len) {
    for (size_t i = 0; i < len; ++i) built->Insert(chunk[i]);
  };
  const double ins_scalar = Mops(
      keys.size(),
      BestSeconds(kReps, [&] { built = MakeFilter(n); },
                  [&] { DriveChunks(keys, threads, scalar_inserts); }));
  if (threads == 1) base[0] = ins_scalar;
  Record(report, kFilter, threads, n, "insert", "scalar", ins_scalar, base[0]);

  // Insert, batch: InsertMany over kBatch-key sub-batches (one shard-lock
  // acquisition per shard per sub-batch instead of per key).
  std::unique_ptr<ShardedFilter> batch_built;
  const auto batch_inserts = [&](const uint64_t* chunk, size_t len) {
    for (size_t i = 0; i < len; i += kBatch) {
      batch_built->InsertMany({chunk + i, std::min(kBatch, len - i)});
    }
  };
  const double ins_batch = Mops(
      keys.size(),
      BestSeconds(kReps, [&] { batch_built = MakeFilter(n); },
                  [&] { DriveChunks(keys, threads, batch_inserts); }));
  Record(report, kFilter, threads, n, "insert", "batch", ins_batch, base[0]);

  // Lookups run against the scalar-built filter.
  const ShardedFilter& f = *built;
  const auto scalar_lk = [&f](const uint64_t* chunk, size_t len) {
    uint64_t hits = 0;
    for (size_t i = 0; i < len; ++i) hits += f.Contains(chunk[i]);
    if (hits == ~uint64_t{0}) std::printf("!");
  };
  const double lk_scalar = Mops(
      queries.size(),
      BestSeconds(kReps, [&] { DriveChunks(queries, threads, scalar_lk); }));
  if (threads == 1) base[1] = lk_scalar;
  Record(report, kFilter, threads, n, "lookup", "scalar", lk_scalar, base[1]);

  const auto batch_lk = [&f](const uint64_t* chunk, size_t len) {
    std::vector<uint8_t> out(kBatch);
    for (size_t i = 0; i < len; i += kBatch) {
      f.ContainsMany({chunk + i, std::min(kBatch, len - i)}, out.data());
    }
  };
  const double lk_batch = Mops(
      queries.size(),
      BestSeconds(kReps, [&] { DriveChunks(queries, threads, batch_lk); }));
  Record(report, kFilter, threads, n, "lookup", "batch", lk_batch, base[1]);
}

// E16's 80/20 mix: every thread draws random stored keys and inserts one
// op in five, looking up the rest.
double DriveMixed(Filter& filter, const std::vector<uint64_t>& keys,
                  int threads, uint64_t ops_per_thread) {
  std::atomic<uint64_t> sink{0};
  const double secs = Seconds([&] {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        SplitMix64 rng(1000 + t);
        uint64_t local = 0;
        for (uint64_t i = 0; i < ops_per_thread; ++i) {
          const uint64_t key = keys[rng.NextBelow(keys.size())];
          if (rng.NextDouble() < 0.2) {
            filter.Insert(key);
          } else {
            local += filter.Contains(key);
          }
        }
        sink += local;
      });
    }
    for (auto& w : workers) w.join();
  });
  if (sink.load() == 0xDEADBEEF) std::printf("!");
  return Mops(static_cast<uint64_t>(threads) * ops_per_thread, secs);
}

/// E16's baseline: one lock around the whole filter.
class GlobalLockFilter : public Filter {
 public:
  explicit GlobalLockFilter(uint64_t capacity) : inner_(capacity * 4, 12) {}

  using Filter::Contains;
  using Filter::Insert;

  bool Insert(HashedKey key) override {
    std::lock_guard lock(mutex_);
    return inner_.Insert(key);
  }
  bool Contains(HashedKey key) const override {
    std::lock_guard lock(mutex_);
    return inner_.Contains(key);
  }
  size_t SpaceBits() const override { return inner_.SpaceBits(); }
  uint64_t NumKeys() const override { return inner_.NumKeys(); }
  FilterClass Class() const override { return FilterClass::kDynamic; }
  std::string_view Name() const override { return "global-lock"; }

 private:
  mutable std::mutex mutex_;
  CuckooFilter inner_;
};

void RunMixed(Report& report, bool quick) {
  const uint64_t ops_per_thread = quick ? 100000 : 400000;
  const auto keys = GenerateDistinctKeys(500000, 81);
  const uint64_t n = keys.size();
  std::printf("E16: 80%% lookups / 20%% inserts over %llu keys\n",
              static_cast<unsigned long long>(n));
  double base[2] = {0.0, 0.0};
  for (int threads : {1, 2, 4, 8}) {
    GlobalLockFilter global(n);
    ShardedFilter sharded(n * 4, 32, [](uint64_t capacity) {
      return std::make_unique<CuckooFilter>(capacity, 12);
    });
    const double g = DriveMixed(global, keys, threads, ops_per_thread);
    const double s = DriveMixed(sharded, keys, threads, ops_per_thread);
    if (threads == 1) {
      base[0] = g;
      base[1] = s;
    }
    Record(report, "global-lock", threads, n, "mixed", "scalar", g, base[0]);
    Record(report, "sharded", threads, n, "mixed", "scalar", s, base[1]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report report("concurrent", args);
  const uint64_t n = args.quick ? (uint64_t{1} << 18) : (uint64_t{1} << 20);
  std::printf("E20: sharded(cuckoo) n = %llu keys, 16 shards\n",
              static_cast<unsigned long long>(n));
  const auto keys = GenerateDistinctKeys(n, 79);
  const auto queries = MixedQueries(keys, GenerateNegativeKeys(keys, n, 80));
  double base[2] = {0.0, 0.0};
  for (int threads : {1, 2, 4, 8}) {
    RunThreads(report, n, threads, keys, queries, base);
  }
  RunMixed(report, args.quick);
  return report.Finish();
}
