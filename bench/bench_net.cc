// Experiment E25 (DESIGN.md §4, §14): filter-as-a-service front end.
//
// What the network layer costs: batched lookup throughput through the
// full wire path (frame encode -> TCP loopback -> epoll loop ->
// ShardedFilter::ContainsMany -> response decode), swept over client
// connection count and per-frame batch size. The expectation mirrors
// the batch-probe story (E4): bigger batches amortize the fixed
// per-frame cost (syscalls, header validation, dispatch) over more
// keys, and QPS scales with event-loop threads until the filter or the
// loopback saturates.
//
// Usage: bench_net [--quick] [--json=PATH]
//   --quick      fewer keys per connection and a smaller sweep.
//   --json=PATH  machine-readable results (BENCH_net.json).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apps/net/client.h"
#include "apps/net/server.h"
#include "bench_util.h"
#include "core/sharded_filter.h"
#include "harness.h"
#include "quotient/quotient_filter.h"
#include "workload/generators.h"

using bbf::Filter;
using bbf::GenerateDistinctKeys;
using bbf::HashedKey;
using bbf::QuotientFilter;
using bbf::ShardedFilter;
using bbf::bench::Mops;
using bbf::bench::Report;
using bbf::bench::Seconds;
using bbf::net::FrameStatus;
using bbf::net::Server;
using bbf::net::ServerConfig;
using bbf::net::SyncClient;

namespace {

/// Times `conns` clients each sending `batch`-key lookup frames, then
/// prints and records the row.
void RunRow(Report& report, uint16_t port, int conns, size_t batch,
            uint64_t keys_per_conn, const std::vector<uint64_t>& pool) {
  // Connect everything first so the timed region is pure request load.
  std::vector<std::unique_ptr<SyncClient>> clients;
  for (int c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<SyncClient>(SyncClient::ConnectTcp(port)));
    if (!clients.back()->ok()) {
      std::fprintf(stderr, "connect failed\n");
      std::exit(1);
    }
  }
  const uint64_t frames_per_conn = std::max<uint64_t>(keys_per_conn / batch, 1);
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  const double seconds = Seconds([&] {
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        SyncClient& client = *clients[c];
        std::vector<uint8_t> res;
        // Each connection walks the pool at its own offset so concurrent
        // frames hit different shards.
        size_t off = (c * 8191u) % pool.size();
        for (uint64_t f = 0; f < frames_per_conn; ++f) {
          if (off + batch > pool.size()) off = 0;
          if (client.Lookup(
                  std::span<const uint64_t>(pool.data() + off, batch),
                  &res) != FrameStatus::kOk) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          off += batch;
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  if (failures.load() != 0) {
    std::fprintf(stderr, "lookup failures: %llu\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  const uint64_t total_keys = frames_per_conn * batch * conns;
  const uint64_t total_frames = frames_per_conn * conns;
  const double lookup_mops = Mops(total_keys, seconds);
  const double frames_per_ms =
      seconds > 0 ? total_frames / (seconds * 1e3) : 0.0;
  std::printf("%8d %8zu %14.3f %14.1f\n", conns, batch, lookup_mops,
              frames_per_ms);
  report.Add({{"conns", conns}, {"batch", batch}},
             {{"lookup_mops", "Mops", lookup_mops},
              {"frames_per_ms", "frames/ms", frames_per_ms}});
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bbf::bench::ParseArgs(argc, argv);
  Report report("net", args);

  const uint64_t pool_size = 1 << 20;
  const uint64_t keys_per_conn = args.quick ? (1 << 17) : (1 << 21);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int loops = static_cast<int>(std::min(hw, 8u));

  ShardedFilter filter(pool_size, 16, [](uint64_t cap) {
    return std::unique_ptr<Filter>(std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, 0.01)));
  });
  const auto pool = GenerateDistinctKeys(pool_size, 42);
  // Half the pool resident: lookups see an even hit/miss mix.
  std::vector<HashedKey> hashed;
  hashed.reserve(pool.size() / 2);
  for (size_t i = 0; i < pool.size() / 2; ++i) hashed.emplace_back(pool[i]);
  filter.InsertMany(hashed);

  ServerConfig config;
  config.num_threads = loops;
  Server server(&filter, config);
  if (!server.Listen(0) || !server.Start()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }

  std::printf("E25: wire front end, %d event-loop threads, pool %llu keys\n",
              loops, static_cast<unsigned long long>(pool_size));
  std::printf("%8s %8s %14s %14s\n", "conns", "batch", "Mkeys/s",
              "frames/ms");
  const std::vector<int> conn_sweep =
      args.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16};
  // The quick sweep is a subset of the full one, so a smoke run's rows
  // always have a full-run counterpart.
  const std::vector<size_t> batch_sweep =
      args.quick ? std::vector<size_t>{16, 1024}
                 : std::vector<size_t>{16, 256, 1024, 4096};
  for (int conns : conn_sweep) {
    for (size_t batch : batch_sweep) {
      RunRow(report, server.port(), conns, batch, keys_per_conn, pool);
    }
  }
  server.Shutdown();
  return report.Finish();
}
