// embed_read: in-process, read-only lookups on a sharded cuckoo filter.
//
// One ShardedFilter of 16 CuckooFilter shards at eps = 1% holds 4M keys
// (about 10 MiB: past a core's L2, inside the shared L3). The query stream
// is half resident, half absent uniform keys, passed as raw uint64_t so
// hashing stays on the path. Phase A calls scalar Contains (one shard lock
// per key); phase B calls 1024-key ContainsMany (one lock per shard per
// batch), so a shard-lock change shows mostly in phase A.
#include <algorithm>
#include <cstdio>
#include <latch>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common.h"
#include "core/sharded_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "simd/dispatch.h"

namespace perfbench {
namespace {

constexpr uint64_t kTag = 1;
constexpr uint64_t kResident = uint64_t{1} << 22;
constexpr uint64_t kQueries = uint64_t{1} << 22;
constexpr uint64_t kAbsentDomain = uint64_t{1} << 24;
constexpr int kShards = 16;
constexpr double kFpr = 0.01;
constexpr size_t kChunk = 1024;  // Keys per timed call (phase B) or group.
constexpr int kSetups = 9;       // Builds per run; setup_s is their median.
constexpr double kWarmupSeconds = 0.25;  // Per phase, before measuring.
constexpr uint64_t kLayerKeys = uint64_t{1} << 20;
constexpr int kLayerReps = 3;
constexpr uint64_t kLayerBlock = 64;  // Chunks per pass before the next.

// Consumes the hash pass's results so the loop cannot be optimised away.
volatile uint64_t g_sink = 0;

int Threads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

struct Inputs {
  std::vector<uint64_t> resident;
  std::vector<uint64_t> queries;
  std::vector<uint8_t> expect;  // 1 where queries[i] is resident.
};

Inputs MakeInputs(uint64_t seed) {
  const uint64_t s = StreamSeed(seed, kTag);
  Inputs in;
  in.resident.resize(kResident);
  for (uint64_t i = 0; i < kResident; ++i) in.resident[i] = PresentKey(s, i);
  Rng rng(s);
  in.queries.resize(kQueries);
  in.expect.resize(kQueries);
  for (uint64_t i = 0; i < kQueries; ++i) {
    if (rng.Next() & 1) {
      in.queries[i] = in.resident[rng.Below(kResident)];
      in.expect[i] = 1;
    } else {
      in.queries[i] = AbsentKey(s, rng.Below(kAbsentDomain));
      in.expect[i] = 0;
    }
  }
  return in;
}

struct Built {
  std::unique_ptr<bbf::ShardedFilter> filter;
  // The shards in shard order, owned by `filter`; captured from the shard
  // factory so the layer run can call a bare shard from outside.
  std::shared_ptr<std::vector<bbf::CuckooFilter*>> shards;
};

// From empty to ready: builds the filter and preloads every resident key
// in kChunk-key InsertMany calls, appending each call's time to
// `insert_us`. Returns the seconds taken.
double Build(const Inputs& in, Built* b, std::vector<double>* insert_us,
             Report* report) {
  b->filter.reset();
  b->shards = std::make_shared<std::vector<bbf::CuckooFilter*>>();
  const uint64_t t0 = NowNs();
  b->filter = std::make_unique<bbf::ShardedFilter>(
      kResident, kShards, [shards = b->shards](uint64_t cap) {
        auto f = std::make_unique<bbf::CuckooFilter>(
            bbf::CuckooFilter::ForFpr(cap, kFpr));
        shards->push_back(f.get());
        return std::unique_ptr<bbf::Filter>(std::move(f));
      });
  for (uint64_t i = 0; i < kResident; i += kChunk) {
    const size_t n = std::min<uint64_t>(kChunk, kResident - i);
    const uint64_t c0 = NowNs();
    const size_t stored = b->filter->InsertMany(
        std::span<const uint64_t>(in.resident.data() + i, n));
    insert_us->push_back(static_cast<double>(NowNs() - c0) / 1e3);
    report->attempted += n;
    report->failed += n - stored;
  }
  const double secs = static_cast<double>(NowNs() - t0) / 1e9;
  // The layer run probes shards directly, which is only meaningful while
  // every shard is its single first generation.
  if (b->shards->size() != kShards) {
    std::fprintf(stderr, "embed_read: shards chained during preload\n");
    ++report->failed;
  }
  return secs;
}

struct Phase {
  std::vector<uint64_t> keys;     // Per thread.
  std::vector<uint64_t> busy_ns;  // Per thread, inside the timed calls.
  std::vector<double> call_us;    // Every timed call.
  uint64_t false_negatives = 0;
};

// Runs `probe` over kChunk-key slices of the query stream on `threads`
// threads for `seconds`, each thread starting at its own offset. `probe`
// writes 0/1 per key; resident keys answered 0 are false negatives.
// With `logs` non-empty (one per thread), each call is also a span.
template <typename Probe>
Phase RunPhase(const Inputs& in, int threads, double seconds,
               const std::vector<SpanLog*>& logs, const char* span_name,
               Probe probe) {
  Phase ph;
  ph.keys.assign(threads, 0);
  ph.busy_ns.assign(threads, 0);
  std::vector<std::vector<double>> lat(threads);
  std::vector<uint64_t> fn(threads, 0);
  std::latch start(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<uint8_t> out(kChunk);
      uint64_t pos = (kQueries / threads) * t / kChunk * kChunk;
      start.arrive_and_wait();
      const uint64_t deadline =
          NowNs() + static_cast<uint64_t>(seconds * 1e9);
      for (uint64_t req = 0;; ++req) {
        if (pos + kChunk > kQueries) pos = 0;
        const std::span<const uint64_t> keys(in.queries.data() + pos, kChunk);
        SpanLog* log = logs.empty() ? nullptr : logs[t];
        const uint32_t sp = log ? log->Open(span_name, req) : kNoSpan;
        const uint64_t c0 = NowNs();
        probe(keys, out.data());
        const uint64_t c1 = NowNs();
        if (log) log->Close(sp, kChunk);
        ph.busy_ns[t] += c1 - c0;
        ph.keys[t] += kChunk;
        lat[t].push_back(static_cast<double>(c1 - c0) / 1e3);
        for (size_t i = 0; i < kChunk; ++i) {
          fn[t] += in.expect[pos + i] & (out[i] ^ 1);
        }
        pos += kChunk;
        if (c1 >= deadline) break;
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < threads; ++t) {
    ph.call_us.insert(ph.call_us.end(), lat[t].begin(), lat[t].end());
    ph.false_negatives += fn[t];
  }
  return ph;
}

void AddSpaceAndFpr(const Inputs& in, const bbf::ShardedFilter& f,
                    Report* report) {
  std::vector<uint8_t> out(kQueries);
  f.ContainsMany(std::span<const uint64_t>(in.queries), out.data());
  uint64_t absent = 0;
  uint64_t positives = 0;
  for (uint64_t i = 0; i < kQueries; ++i) {
    if (in.expect[i] == 0) {
      ++absent;
      positives += out[i];
    } else if (out[i] == 0) {
      ++report->failed;
    }
  }
  report->attempted += kQueries;
  report->Add("fpr", static_cast<double>(positives) / absent, "ratio");
  report->Add("bits_per_key",
              static_cast<double>(f.SpaceBits()) / f.NumKeys(), "bits");
}

}  // namespace

void RunEmbedRead(const Options& opt, double seconds, Tracer* tracer,
                  Report* report) {
  const Inputs in = MakeInputs(opt.seed);
  Built b;
  std::vector<double> setup_s;
  std::vector<double> insert_p99;
  const auto build = [&] {
    // On one CPU: left free to move between CPUs, the building thread's
    // set-up time ranged over 12% in five runs of one seed, and over 2%
    // when pinned.
    const CpuConfinement cpu(1);
    std::vector<double> insert_us;
    setup_s.push_back(Build(in, &b, &insert_us, report));
    insert_p99.push_back(Quantile(insert_us, 0.99));
  };
  const int threads = Threads();
  // Both read the filter of the latest set-up.
  const auto scalar = [&b](std::span<const uint64_t> keys, uint8_t* out) {
    const bbf::ShardedFilter& f = *b.filter;
    for (size_t i = 0; i < keys.size(); ++i) {
      out[i] = f.Contains(keys[i]) ? 1 : 0;
    }
  };
  const auto batch = [&b](std::span<const uint64_t> keys, uint8_t* out) {
    b.filter->ContainsMany(keys, out);
  };

  // Warm caches and branch predictors, then alternate short slices of the
  // two phases so slow spells of a shared host fall on both alike; each
  // figure is the median over slices. The kSetups set-ups are spread over
  // the run too: done back to back at its start, they all fell in the
  // same spell of the host, and the preload's insert tail moved by 15 to
  // 23% between runs (IQR over median of ten runs) against 4 to 10% for
  // the lookup figures of the same runs.
  std::vector<SpanLog*> logs;
  if (tracer != nullptr) {
    for (int t = 0; t < threads; ++t) logs.push_back(&tracer->NewLog(1 << 17));
  }
  build();
  RunPhase(in, threads, kWarmupSeconds, {}, "warmup", scalar);
  RunPhase(in, threads, kWarmupSeconds, {}, "warmup", batch);
  const int slices = std::max(2, static_cast<int>(seconds / 2));
  const double slice_s = seconds / 2 / slices;
  std::vector<double> scalar_mops;
  std::vector<double> batch_mops;
  std::vector<double> p50;
  std::vector<double> p99;
  for (int i = 0; i < slices; ++i) {
    // Set-up j comes before slice j * slices / kSetups.
    while (static_cast<int>(setup_s.size()) < kSetups &&
           static_cast<int>(setup_s.size()) * slices < (i + 1) * kSetups) {
      build();
    }
    Phase a =
        RunPhase(in, threads, slice_s, logs, "embed.contains_1024", scalar);
    Phase bp = RunPhase(in, threads, slice_s, logs,
                        "embed.contains_many_1024", batch);
    scalar_mops.push_back(SumOfRatesM(a.keys, a.busy_ns));
    batch_mops.push_back(SumOfRatesM(bp.keys, bp.busy_ns));
    p50.push_back(Quantile(bp.call_us, 0.50));
    p99.push_back(Quantile(bp.call_us, 0.99));
    for (const Phase* p : {&a, &bp}) {
      for (uint64_t k : p->keys) report->attempted += k;
      report->failed += p->false_negatives;
    }
  }

  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_mops", Median(batch_mops), "Mops");
  report->Add("lookup_mops", Median(scalar_mops), "Mops");
  report->Add("lookup_p50_us", Median(p50), "us");
  report->Add("lookup_tail_us", Median(p99), "us");
  report->Add("write_tail_us", Median(insert_p99), "us");
  AddSpaceAndFpr(in, *b.filter, report);
}

void TraceEmbedLayers(const Options& opt, Tracer* tracer, Report* report) {
  const Inputs in = MakeInputs(opt.seed);
  Built b;
  std::vector<double> insert_us;
  Build(in, &b, &insert_us, report);
  const bbf::ShardedFilter& f = *b.filter;
  const std::vector<bbf::CuckooFilter*>& shards = *b.shards;

  // The first kLayerKeys queries, pre-hashed and, per kChunk group,
  // ordered by shard the way ShardedFilter routes them (the canonical mix
  // modulo the shard count), so bare shards see exactly their own keys.
  const uint64_t n = kLayerKeys;
  std::vector<bbf::HashedKey> hashed(n);
  std::vector<bbf::HashedKey> grouped(n);
  std::vector<uint32_t> bounds;  // Per group: kShards + 1 offsets.
  for (uint64_t g = 0; g < n; g += kChunk) {
    std::vector<std::vector<bbf::HashedKey>> by_shard(kShards);
    for (uint64_t i = g; i < g + kChunk; ++i) {
      hashed[i] = bbf::HashedKey(in.queries[i]);
      by_shard[hashed[i].value() % kShards].push_back(hashed[i]);
    }
    uint64_t pos = g;
    for (int s = 0; s < kShards; ++s) {
      bounds.push_back(static_cast<uint32_t>(pos));
      std::copy(by_shard[s].begin(), by_shard[s].end(), grouped.begin() + pos);
      pos += by_shard[s].size();
    }
    bounds.push_back(static_cast<uint32_t>(pos));
  }

  // One call is one kChunk-key chunk of the stream; a layer's cost is its
  // spans' summed time over the keys they covered.
  std::vector<uint8_t> out(kChunk);
  std::vector<uint8_t> sharded_out(n);
  std::vector<uint8_t> sharded_many_out(n);
  uint64_t sink = 0;
  const auto probe_shards = [&](int, uint64_t c) {
    const uint32_t* bd = &bounds[c * (kShards + 1)];
    for (int s = 0; s < kShards; ++s) {
      shards[s]->ContainsMany(
          std::span<const bbf::HashedKey>(grouped.data() + bd[s],
                                          bd[s + 1] - bd[s]),
          out.data() + (bd[s] - c * kChunk));
    }
  };
  const std::vector<LayerPass> passes = {
      {"core.hash", kChunk,
       [&](int, uint64_t c) {
         for (uint64_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
           sink ^= bbf::HashedKey(in.queries[i]).value();
         }
       }},
      {"cuckoo.contains", kChunk,
       [&](int, uint64_t c) {
         for (uint64_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
           out[i - c * kChunk] =
               shards[hashed[i].value() % kShards]->Contains(hashed[i]);
         }
       }},
      {"cuckoo.contains_many", kChunk, probe_shards},
      {"cuckoo.contains_many.scalar", kChunk, probe_shards, true},
      {"core.sharded_contains", kChunk,
       [&](int, uint64_t c) {
         for (uint64_t i = c * kChunk; i < (c + 1) * kChunk; ++i) {
           sharded_out[i] = f.Contains(in.queries[i]) ? 1 : 0;
         }
       }},
      {"core.sharded_contains_many", kChunk,
       [&](int, uint64_t c) {
         f.ContainsMany(
             std::span<const uint64_t>(in.queries.data() + c * kChunk,
                                       kChunk),
             sharded_many_out.data() + c * kChunk);
       }},
  };
  SpanLog& log = tracer->NewLog(size_t{1} << 16);
  const bool scalar_forced =
      RunLayerPasses(log, passes, n / kChunk, kLayerBlock, kLayerReps);
  uint64_t fn = 0;
  for (uint64_t i = 0; i < n; ++i) {
    fn += in.expect[i] & ((sharded_out[i] & sharded_many_out[i]) ^ 1);
  }
  report->attempted += 2 * kLayerReps * n;
  report->failed += fn;

  // Read scaling: scalar Contains on one thread, then on every thread at
  // once (each from its own offset into the stream), in turn.
  const int threads = Threads();
  std::vector<SpanLog*> logs;
  for (int t = 0; t < threads; ++t) logs.push_back(&tracer->NewLog(1 << 14));
  std::vector<uint64_t> fns(threads, 0);
  const auto scan = [&](int nthreads, const char* name) {
    std::latch start(nthreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < nthreads; ++t) {
      pool.emplace_back([&, t] {
        std::vector<uint8_t> o(kChunk);
        const uint64_t base = (kQueries / threads) * t / kChunk * kChunk;
        start.arrive_and_wait();
        for (uint64_t g = 0; g < n; g += kChunk) {
          const uint64_t p = (base + g) % kQueries;
          {
            ScopedSpan sp(logs[t], name, g / kChunk);
            for (size_t i = 0; i < kChunk; ++i) {
              o[i] = f.Contains(in.queries[p + i]) ? 1 : 0;
            }
            sp.set_items(kChunk);
          }
          for (size_t i = 0; i < kChunk; ++i) {
            fns[t] += in.expect[p + i] & (o[i] ^ 1);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
    report->attempted += static_cast<uint64_t>(nthreads) * n;
  };
  for (int rep = 0; rep < kLayerReps; ++rep) {
    scan(1, "core.read_scaling.1t");
    scan(threads, "core.read_scaling.mt");
  }
  for (uint64_t x : fns) report->failed += x;

  const double hash = tracer->Sum("core.hash").NsPerItem();
  const double bare = tracer->Sum("cuckoo.contains").NsPerItem();
  const double bare_many = tracer->Sum("cuckoo.contains_many").NsPerItem();
  const double bare_scalar =
      tracer->Sum("cuckoo.contains_many.scalar").NsPerItem();
  const double sharded = tracer->Sum("core.sharded_contains").NsPerItem();
  const double sharded_many =
      tracer->Sum("core.sharded_contains_many").NsPerItem();
  const double one = tracer->Sum("core.read_scaling.1t").NsPerItem();
  const double mt = tracer->Sum("core.read_scaling.mt").NsPerItem();
  report->Add("core.hash_ns", hash, "ns");
  report->Add("cuckoo.contains_ns", bare, "ns");
  report->Add("cuckoo.contains_many_ns", bare_many, "ns");
  // 1.0 when the scalar kernel could not be forced (nothing to compare).
  report->Add("simd.kernel_speedup",
              scalar_forced && bare_many > 0 ? bare_scalar / bare_many : 1.0,
              "x");
  report->Add("core.route_lock_ns", sharded - hash - bare, "ns");
  report->Add("core.batch_route_ns", sharded_many - hash - bare_many, "ns");
  // Per-thread time per key, so the aggregate rate ratio is
  // threads * one / mt.
  report->Add("core.read_scaling", mt > 0 ? threads * one / mt : 0.0, "x");
  g_sink = sink;
}

}  // namespace perfbench
