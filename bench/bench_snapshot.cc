// Experiment E19 (DESIGN.md §4): snapshot save/load throughput vs
// rebuild-from-keys. The snapshot layer (DESIGN.md §8) exists so a
// restarting process can mmap/stream a checksummed frame instead of
// re-hashing every key: loading is a sequential read + checksum, while
// rebuilding repays one random cache line (or more) per key. This bench
// measures both paths per family and the blob size the frame costs.
//
// Usage: bench_snapshot [--quick] [--json=PATH]
//   --quick  200k keys (default 2M).

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness.h"
#include "core/factory.h"
#include "core/filter_io.h"
#include "core/sharded_filter.h"
#include "staticf/xor_filter.h"
#include "util/random.h"

using namespace bbf;
using namespace bbf::bench;

namespace {

struct Row {
  std::string filter;
  double build_s;
  double save_s;
  double load_s;
  size_t blob_bytes;
};

/// Prints the row and records it; a family whose reload disagrees is
/// printed as a mismatch and fails the run.
void Record(Report* report, const Row& r, bool loaded_ok, bool* ok) {
  if (!loaded_ok) {
    std::printf("  %-14s LOAD MISMATCH\n", r.filter.c_str());
    *ok = false;
    return;
  }
  std::printf("  %-14s build %7.1f ms   save %6.1f ms (%6.1f MB/s)   "
              "load %6.1f ms (%6.1f MB/s)   %5.2fx vs rebuild   "
              "%5.1f MiB\n",
              r.filter.c_str(), r.build_s * 1e3, r.save_s * 1e3,
              r.blob_bytes / r.save_s / 1e6, r.load_s * 1e3,
              r.blob_bytes / r.load_s / 1e6,
              r.load_s > 0 ? r.build_s / r.load_s : 0.0,
              r.blob_bytes / 1048576.0);
  report->Add({{"filter", r.filter}},
              {{"build_s", "s", r.build_s},
               {"save_s", "s", r.save_s},
               {"load_s", "s", r.load_s},
               {"blob_bytes", "bytes", r.blob_bytes}});
}

std::vector<uint64_t> MakeKeys(uint64_t n) {
  SplitMix64 rng(0x5EED);
  std::vector<uint64_t> keys(n);
  for (uint64_t& k : keys) k = rng.Next();
  return keys;
}

/// Dynamic families: rebuild = construct + InsertMany; load = framed
/// snapshot through the factory (core/filter_io.h).
void BenchDynamic(std::string_view tag, const std::vector<uint64_t>& keys,
                  Report* report, bool* ok) {
  Row r{std::string(tag), 0, 0, 0, 0};
  std::unique_ptr<Filter> built;
  r.build_s = Seconds([&] {
    built = CreateFilterForTag(tag, keys.size());
    built->InsertMany(keys);
  });

  std::string blob;
  r.save_s = Seconds([&] {
    std::ostringstream ss;
    built->Save(ss);
    blob = std::move(ss).str();
  });
  r.blob_bytes = blob.size();

  std::unique_ptr<Filter> loaded;
  r.load_s = Seconds([&] {
    std::istringstream is(blob);
    loaded = LoadFilterSnapshot(is);
  });
  Record(report, r, loaded && loaded->NumKeys() == built->NumKeys(), ok);
}

/// Static families: rebuild = the peeling/solving construction itself.
void BenchXor(const std::vector<uint64_t>& keys, Report* report, bool* ok) {
  Row r{"xor", 0, 0, 0, 0};
  std::unique_ptr<Filter> built;
  r.build_s =
      Seconds([&] { built = std::make_unique<XorFilter>(keys, 12); });
  std::string blob;
  r.save_s = Seconds([&] {
    std::ostringstream ss;
    built->Save(ss);
    blob = std::move(ss).str();
  });
  r.blob_bytes = blob.size();
  std::unique_ptr<Filter> loaded;
  r.load_s = Seconds([&] {
    std::istringstream is(blob);
    loaded = LoadFilterSnapshot(is);
  });
  Record(report, r, loaded && loaded->NumKeys() == built->NumKeys(), ok);
}

void BenchSharded(const std::vector<uint64_t>& keys,
                  Report* report, bool* ok) {
  Row r{"sharded(16)", 0, 0, 0, 0};
  std::unique_ptr<ShardedFilter> built;
  r.build_s = Seconds([&] {
    built = std::make_unique<ShardedFilter>(
        keys.size(), 16,
        [](uint64_t cap) { return CreateFilter("blocked-bloom", cap, 0.01); });
    built->InsertMany(keys);
  });
  std::string blob;
  r.save_s = Seconds([&] {
    std::ostringstream ss;
    built->Save(ss);
    blob = std::move(ss).str();
  });
  r.blob_bytes = blob.size();
  std::unique_ptr<Filter> loaded;
  r.load_s = Seconds([&] {
    std::istringstream is(blob);
    loaded = LoadFilterSnapshot(is);
  });
  Record(report, r, loaded && loaded->NumKeys() == built->NumKeys(), ok);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const uint64_t n = args.quick ? 200000 : 2000000;
  Report report("snapshot", args);
  bool ok = true;
  const std::vector<uint64_t> keys = MakeKeys(n);
  std::printf("E19 snapshot: save/load vs rebuild, n=%llu keys\n\n",
              static_cast<unsigned long long>(n));
  for (std::string_view tag :
       {"bloom", "blocked-bloom", "quotient", "cuckoo", "taffy"}) {
    BenchDynamic(tag, keys, &report, &ok);
  }
  BenchXor(keys, &report, &ok);
  BenchSharded(keys, &report, &ok);
  std::printf("\n(load MB/s is framed-stream parse incl. checksum; "
              "'x vs rebuild' = build time / load time)\n");
  return report.Finish(ok);
}
