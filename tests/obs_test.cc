// Metrics-accuracy tests for the observability layer (DESIGN.md §11):
// exact counter values after scripted op sequences, histogram bucket
// math, the observed-FPR estimator against a measured ground truth, and
// byte-validated exporter output.

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/lsm/lsm_tree.h"
#include "apps/net/server.h"
#include "bloom/bloom_filter.h"
#include "core/sharded_filter.h"
#include "cuckoo/adaptive_cuckoo_filter.h"
#include "cuckoo/cuckoo_filter.h"
#include "expandable/taffy_filter.h"
#include "obs/export.h"
#include "obs/instrumented.h"
#include "obs/metrics.h"
#include "quotient/quotient_filter.h"
#include "test_seed.h"
#include "workload/generators.h"

namespace bbf {
namespace {

using obs::FilterMetrics;
using obs::InstrumentedFilter;
using obs::LatencyReservoir;
using obs::Log2Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::ObservedFprEstimator;

// --- Histogram bucket math --------------------------------------------------

TEST(Log2Histogram, BucketPlacementIsExact) {
  EXPECT_EQ(Log2Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Log2Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Log2Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Log2Histogram::BucketOf(3), 3u);
  EXPECT_EQ(Log2Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Log2Histogram::BucketOf(5), 4u);
  EXPECT_EQ(Log2Histogram::BucketOf(8), 4u);
  EXPECT_EQ(Log2Histogram::BucketOf(9), 5u);
  // Everything beyond the largest finite bound lands in the +Inf bucket.
  EXPECT_EQ(Log2Histogram::BucketOf(uint64_t{1} << 15),
            Log2Histogram::kBuckets - 1);
  EXPECT_EQ(Log2Histogram::BucketOf(~uint64_t{0}), Log2Histogram::kBuckets - 1);
  // Bounds are the bucket upper edges: BucketOf(BoundOf(b)) == b.
  for (size_t b = 0; b < Log2Histogram::kFiniteBounds; ++b) {
    EXPECT_EQ(Log2Histogram::BucketOf(Log2Histogram::BoundOf(b)), b) << b;
  }
}

TEST(Log2Histogram, CumulativeCountsAndSumAreExact) {
  Log2Histogram h;
  const std::vector<uint64_t> values = {0, 0, 1, 2, 3, 4, 7, 100, 65536};
  uint64_t sum = 0;
  for (uint64_t v : values) {
    h.Record(v);
    sum += v;
  }
  const obs::HistogramSnapshot snap = h.Snapshot("test");
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.sum, sum);
  ASSERT_EQ(snap.bounds.size(), Log2Histogram::kFiniteBounds);
  ASSERT_EQ(snap.cumulative.size(), Log2Histogram::kBuckets);
  // Cumulative counts at each bound: values <= bound.
  for (size_t b = 0; b < snap.bounds.size(); ++b) {
    uint64_t expect = 0;
    for (uint64_t v : values) expect += v <= snap.bounds[b];
    EXPECT_EQ(snap.cumulative[b], expect) << "le=" << snap.bounds[b];
  }
  EXPECT_EQ(snap.cumulative.back(), values.size());  // +Inf holds everything.
}

TEST(LatencyReservoir, QuantilesAreOrderedAndBounded) {
  LatencyReservoir r;
  for (uint64_t i = 1; i <= 100; ++i) r.Record(i);
  const LatencyReservoir::Snapshot snap = r.Snap();
  EXPECT_EQ(snap.samples, 100u);
  EXPECT_EQ(snap.max_ns, 100u);
  EXPECT_LE(snap.p50_ns, snap.p99_ns);
  EXPECT_LE(snap.p99_ns, snap.max_ns);
  EXPECT_NEAR(static_cast<double>(snap.p50_ns), 50.0, 2.0);
}

// --- Exact operation counters ----------------------------------------------

TEST(InstrumentedFilter, ScalarCountersAreExact) {
  InstrumentedFilter f(std::make_unique<CuckooFilter>(4096, 12),
                       /*configured_epsilon=*/0.002);
  const auto keys = GenerateDistinctKeys(1000, 11);
  const auto ghosts = GenerateNegativeKeys(keys, 500, 12);

  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  uint64_t hits = 0;
  for (uint64_t k : keys) hits += f.Contains(k);
  for (uint64_t g : ghosts) hits += f.Contains(g);
  ASSERT_TRUE(f.Erase(keys[0]));
  EXPECT_FALSE(f.Erase(ghosts[0]));

  const FilterMetrics& m = f.metrics();
  EXPECT_EQ(m.inserts.Load(), 1000u);
  EXPECT_EQ(m.insert_failures.Load(), 0u);
  EXPECT_EQ(m.lookups.Load(), 1500u);
  EXPECT_EQ(m.lookup_hits.Load(), hits);
  EXPECT_GE(m.lookup_hits.Load(), 1000u);  // No false negatives.
  EXPECT_EQ(m.erases.Load(), 2u);
  EXPECT_EQ(m.erase_failures.Load(), 1u);
  // Cuckoo reports exactly one kick-chain event per insert attempt, and
  // the metrics block samples every kStructuralSampleEvery-th: a scripted
  // single-threaded sequence records a deterministic count.
  const obs::HistogramSnapshot kicks = m.kick_chain.Snapshot("k");
  EXPECT_EQ(kicks.count,
            (1000 + FilterMetrics::kStructuralSampleEvery - 1) /
                FilterMetrics::kStructuralSampleEvery);
}

TEST(InstrumentedFilter, BatchCountersAreExact) {
  InstrumentedFilter f(std::make_unique<BloomFilter>(4096, 12.0),
                       /*configured_epsilon=*/0.01);
  const auto keys = GenerateDistinctKeys(2000, 21);

  EXPECT_EQ(f.InsertMany(keys), keys.size());
  std::vector<uint8_t> out(keys.size());
  f.ContainsMany(keys, out.data());

  const FilterMetrics& m = f.metrics();
  EXPECT_EQ(m.inserts.Load(), 2000u);
  EXPECT_EQ(m.insert_failures.Load(), 0u);
  EXPECT_EQ(m.lookups.Load(), 2000u);
  EXPECT_EQ(m.lookup_hits.Load(), 2000u);  // All present: Bloom never loses.
  const obs::HistogramSnapshot batches = m.batch_size.Snapshot("b");
  EXPECT_EQ(batches.count, 1u);       // One ContainsMany call...
  EXPECT_EQ(batches.sum, 2000u);      // ...covering every key.
  const LatencyReservoir::Snapshot lat = m.lookup_latency.Snap();
  EXPECT_GE(lat.samples, 1u);  // Batch lookups record amortized samples.
}

TEST(InstrumentedFilter, SampledBatchClockKeepsCountersExact) {
  InstrumentedFilter f(std::make_unique<BloomFilter>(4096, 12.0),
                       /*configured_epsilon=*/0.01);
  const auto keys = GenerateDistinctKeys(1000, 31);
  const auto ghosts = GenerateNegativeKeys(keys, 1000, 32);
  f.InsertMany(keys);

  // Calls of 1..N keys alternating between present and absent keys, so
  // sizes and hit counts differ from call to call.
  constexpr uint64_t kCalls = 37;
  const uint64_t every = InstrumentedFilter::kBatchLatencySampleEvery;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  std::vector<uint8_t> out(kCalls);
  for (uint64_t call = 0; call < kCalls; ++call) {
    const auto& src = call % 2 == 0 ? keys : ghosts;
    const std::span<const uint64_t> batch(src.data() + call, call + 1);
    f.ContainsMany(batch, out.data());
    lookups += batch.size();
    for (size_t i = 0; i < batch.size(); ++i) hits += out[i];
    if (call == 0) {
      EXPECT_EQ(f.metrics().lookup_latency.Snap().samples, 1u)
          << "the first batch call is clocked";
    }
  }

  const FilterMetrics& m = f.metrics();
  EXPECT_EQ(m.lookups.Load(), lookups);
  EXPECT_EQ(m.lookup_hits.Load(), hits);
  const obs::HistogramSnapshot batches = m.batch_size.Snapshot("b");
  EXPECT_EQ(batches.count, kCalls);
  EXPECT_EQ(batches.sum, lookups);
  EXPECT_EQ(m.lookup_latency.Snap().samples, (kCalls + every - 1) / every);
}

TEST(InstrumentedFilter, BatchInsertsRecordEveryInDomainKey) {
  // Enough keys that the in-domain ones span several sample chunks.
  InstrumentedFilter f(std::make_unique<BloomFilter>(40000, 10.0), 0.01);
  const auto keys = GenerateDistinctKeys(40000, 41);
  uint64_t in_domain = 0;
  for (uint64_t k : keys) {
    in_domain += ObservedFprEstimator::InDomain(HashedKey(k));
  }
  ASSERT_GT(in_domain, 4 * InstrumentedFilter::kInsertSampleChunk);
  EXPECT_EQ(f.InsertMany(keys), keys.size());
  EXPECT_EQ(f.metrics().fpr.Snap().tracked_keys, in_domain);
}

TEST(InstrumentedFilter, ProbeLengthSamplesQuotientScans) {
  InstrumentedFilter f(std::make_unique<QuotientFilter>(
                           QuotientFilter::ForCapacity(4096, 0.01)),
                       0.01);
  const auto keys = GenerateDistinctKeys(2000, 31);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));
  for (uint64_t k : keys) ASSERT_TRUE(f.Contains(k));
  // Quotient reports one probe-run event per lookup; sampled 1-in-S.
  const obs::HistogramSnapshot probes =
      f.metrics().probe_length.Snapshot("p");
  EXPECT_EQ(probes.count,
            (2000 + FilterMetrics::kStructuralSampleEvery - 1) /
                FilterMetrics::kStructuralSampleEvery);
  EXPECT_GE(probes.sum, probes.count);  // Every present key scans >= 1 slot.
}

TEST(InstrumentedFilter, ExpansionAndAdaptEventsAreCounted) {
  // Taffy starts tiny and doubles repeatedly under load.
  InstrumentedFilter taffy(std::make_unique<TaffyFilter>(6, 16), 0.01);
  const auto keys = GenerateDistinctKeys(2000, 41);
  for (uint64_t k : keys) ASSERT_TRUE(taffy.Insert(k));
  EXPECT_GT(taffy.metrics().expansions.Load(), 0u);

  // The adaptive cuckoo repairs reported false positives; each repair is
  // an adapt event.
  InstrumentedFilter acf(
      std::make_unique<AdaptiveCuckooFilter>(4096, /*fingerprint_bits=*/8,
                                             /*selector_bits=*/2),
      0.03);
  for (uint64_t k : keys) ASSERT_TRUE(acf.Insert(k));
  ASSERT_TRUE(acf.adaptive());
  const auto ghosts = GenerateNegativeKeys(keys, 20000, 42);
  uint64_t reported = 0;
  for (uint64_t g : ghosts) {
    if (acf.Contains(g)) {
      acf.ReportFalsePositive(g);
      ++reported;
    }
  }
  ASSERT_GT(reported, 0u) << "8-bit fingerprints must produce some FPs";
  EXPECT_EQ(acf.metrics().fp_reports.Load(), reported);
  EXPECT_GT(acf.metrics().adapt_events.Load(), 0u);
}

// --- Observed-FPR estimator --------------------------------------------------

TEST(ObservedFprEstimator, TracksGroundTruthExactly) {
  ObservedFprEstimator est;
  // Hand-built scenario with keys forced into the domain via FromMix.
  const HashedKey a = HashedKey::FromMix(64);
  const HashedKey b = HashedKey::FromMix(128);
  ASSERT_TRUE(ObservedFprEstimator::InDomain(a));
  ASSERT_TRUE(ObservedFprEstimator::InDomain(b));
  est.RecordInsert(a);
  est.RecordLookup(a, true);    // True positive.
  est.RecordLookup(a, false);   // False negative!
  est.RecordLookup(b, true);    // False positive.
  est.RecordLookup(b, false);   // True negative.
  est.RecordErase(a);
  est.RecordLookup(a, false);   // Now a true negative.

  const ObservedFprEstimator::Snapshot snap = est.Snap();
  EXPECT_EQ(snap.tracked_keys, 0u);
  EXPECT_EQ(snap.positive_lookups, 2u);
  EXPECT_EQ(snap.false_negatives, 1u);
  EXPECT_EQ(snap.negative_lookups, 3u);
  EXPECT_EQ(snap.false_positives, 1u);
  EXPECT_DOUBLE_EQ(snap.observed_fpr, 1.0 / 3.0);
}

TEST(InstrumentedFilter, ObservedFprMatchesMeasuredWithinBinomialCi) {
  const uint64_t seed = TestSeed(777);
  BBF_ANNOUNCE_SEED(seed);
  // A deliberately loose Bloom filter so the FPR is comfortably non-zero.
  InstrumentedFilter f(std::make_unique<BloomFilter>(20000, 6.0), 0.05);
  const auto keys = GenerateDistinctKeys(20000, seed);
  const auto ghosts = GenerateNegativeKeys(keys, 200000, seed + 1);
  for (uint64_t k : keys) ASSERT_TRUE(f.Insert(k));

  // Measure the true FPR over every ghost; the estimator only sees the
  // scalar lookups' 1-in-64 key-domain sample of the same stream.
  uint64_t fp = 0;
  for (uint64_t g : ghosts) fp += f.Contains(g);
  const double measured = static_cast<double>(fp) / ghosts.size();
  ASSERT_GT(measured, 0.001) << "6 bits/key must show a visible FPR";

  const ObservedFprEstimator::Snapshot snap = f.metrics().fpr.Snap();
  ASSERT_GT(snap.negative_lookups, 1000u);  // ~200k/64 sampled negatives.
  EXPECT_EQ(snap.false_negatives, 0u) << "Bloom filters have no FNs";
  // The sampled FP count is Binomial(negative_lookups, measured); accept
  // within 4 sigma plus one count of slack (4 sigma one-sided ~ 3e-5).
  const double expect_fp = snap.negative_lookups * measured;
  const double sigma = std::sqrt(expect_fp * (1.0 - measured));
  EXPECT_NEAR(static_cast<double>(snap.false_positives), expect_fp,
              4.0 * sigma + 1.0)
      << "observed_fpr=" << snap.observed_fpr << " measured=" << measured;
}

TEST(InstrumentedFilter, BatchLookupsFeedTheEstimator) {
  InstrumentedFilter f(std::make_unique<BloomFilter>(10000, 10.0), 0.01);
  const auto keys = GenerateDistinctKeys(10000, 55);
  f.InsertMany(keys);
  std::vector<uint8_t> out(keys.size());
  f.ContainsMany(keys, out.data());
  const ObservedFprEstimator::Snapshot snap = f.metrics().fpr.Snap();
  // Strided batch scoring: positions 0, 16, 32, ... intersected with the
  // 1-in-64 key domain still sees some of the 10k present keys.
  EXPECT_GT(snap.positive_lookups, 0u);
  EXPECT_EQ(snap.false_negatives, 0u);
}

// --- ShardedFilter aggregation ----------------------------------------------

TEST(InstrumentedFilter, ShardedSaturationOutcomesMatchStats) {
  SaturationConfig config;
  config.policy = SaturationPolicy::kChain;
  config.max_generations = 2;
  auto sharded = std::make_unique<ShardedFilter>(
      256, 4,
      [](uint64_t cap) -> std::unique_ptr<Filter> {
        return std::make_unique<CuckooFilter>(cap, 12);
      },
      config);
  ShardedFilter* inner = sharded.get();
  InstrumentedFilter f(std::move(sharded), 0.002);

  // Overdrive far past capacity so every outcome class appears.
  const auto keys = GenerateDistinctKeys(4000, 61);
  size_t accepted_calls = 0;
  for (uint64_t k : keys) accepted_calls += f.Insert(k);

  uint64_t accepted = 0, expanded = 0, rejected = 0;
  for (const ShardedFilter::ShardStats& s : inner->Stats()) {
    accepted += s.accepted;
    expanded += s.expanded;
    rejected += s.rejected;
  }
  EXPECT_EQ(accepted + expanded, accepted_calls);
  EXPECT_GT(expanded, 0u) << "tiny shards must chain";
  EXPECT_GT(rejected, 0u) << "max_generations=2 must eventually reject";
  EXPECT_EQ(f.metrics().insert_failures.Load(), rejected);
  // Chaining a generation reports OnExpansion through the sink.
  EXPECT_GT(f.metrics().expansions.Load(), 0u);

  // The exporter snapshot carries the aggregated Stats() surface.
  const MetricsSnapshot snap = f.Snapshot();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("saturation_accepted_total"), accepted);
  EXPECT_EQ(counter("saturation_expanded_total"), expanded);
  EXPECT_EQ(counter("saturation_rejected_total"), rejected);
}

// --- Snapshot byte-compatibility through the decorator -----------------------

TEST(InstrumentedFilter, SaveIsByteIdenticalToInnerSave) {
  auto bare = std::make_unique<CuckooFilter>(1024, 12);
  const auto keys = GenerateDistinctKeys(500, 71);
  InstrumentedFilter f(std::make_unique<CuckooFilter>(1024, 12), 0.002);
  for (uint64_t k : keys) {
    ASSERT_TRUE(bare->Insert(k));
    ASSERT_TRUE(f.Insert(k));
  }
  std::ostringstream bare_os, inst_os;
  ASSERT_TRUE(bare->Save(bare_os));
  ASSERT_TRUE(f.Save(inst_os));
  EXPECT_EQ(bare_os.str(), inst_os.str());
}

// --- Exporters ---------------------------------------------------------------

/// A hand-built snapshot with one of everything, for byte-level golden
/// validation of both exporters.
MetricsSnapshot TinySnapshot() {
  MetricsSnapshot snap;
  snap.counters.push_back({"lookups_total", 3});
  snap.gauges.push_back({"observed_fpr", 0.25});
  obs::HistogramSnapshot h;
  h.name = "batch_size";
  h.bounds = {0, 1, 2};
  h.cumulative = {0, 1, 2, 3};  // One value each in (0,1], (1,2], (2,inf).
  h.sum = 9;
  h.count = 3;
  snap.histograms.push_back(h);
  return snap;
}

TEST(Exporters, PrometheusGoldenBytes) {
  MetricsRegistry registry;
  registry.Register("demo", TinySnapshot);
  const std::string got = obs::RenderPrometheus(registry.Snapshot());
  const std::string want =
      "# TYPE bbf_lookups_total counter\n"
      "bbf_lookups_total{filter=\"demo\"} 3\n"
      "# TYPE bbf_observed_fpr gauge\n"
      "bbf_observed_fpr{filter=\"demo\"} 0.25\n"
      "# TYPE bbf_batch_size histogram\n"
      "bbf_batch_size_bucket{filter=\"demo\",le=\"0\"} 0\n"
      "bbf_batch_size_bucket{filter=\"demo\",le=\"1\"} 1\n"
      "bbf_batch_size_bucket{filter=\"demo\",le=\"2\"} 2\n"
      "bbf_batch_size_bucket{filter=\"demo\",le=\"+Inf\"} 3\n"
      "bbf_batch_size_sum{filter=\"demo\"} 9\n"
      "bbf_batch_size_count{filter=\"demo\"} 3\n";
  EXPECT_EQ(got, want);
}

TEST(Exporters, JsonGoldenBytes) {
  MetricsRegistry registry;
  registry.Register("demo", TinySnapshot);
  const std::string got = obs::RenderJson(registry.Snapshot());
  const std::string want =
      "{\n"
      "  \"filters\": [\n"
      "    {\n"
      "      \"filter\": \"demo\",\n"
      "      \"counters\": {\"lookups_total\": 3},\n"
      "      \"gauges\": {\"observed_fpr\": 0.25},\n"
      "      \"histograms\": {\n"
      "        \"batch_size\": {\"bounds\": [0, 1, 2], "
      "\"cumulative\": [0, 1, 2, 3], \"sum\": 9, \"count\": 3}\n"
      "      }\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(got, want);
}

TEST(Exporters, SeriesOfOneMetricShareOneTypeLine) {
  MetricsRegistry registry;
  registry.Register("a", TinySnapshot);
  registry.Register("b", TinySnapshot);
  const std::string page = obs::RenderPrometheus(registry.Snapshot());
  // One # TYPE line per metric even with two sources...
  size_t type_lines = 0;
  for (size_t pos = 0; (pos = page.find("# TYPE bbf_lookups_total", pos)) !=
                       std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
  // ...with both series present.
  EXPECT_NE(page.find("bbf_lookups_total{filter=\"a\"} 3"), std::string::npos);
  EXPECT_NE(page.find("bbf_lookups_total{filter=\"b\"} 3"), std::string::npos);
}

/// Every counter, gauge, and histogram an instrumented filter registers
/// must round-trip into both exporter formats with its exact value —
/// this is the demo's scrape page, validated metric by metric.
TEST(Exporters, EveryRegisteredMetricRoundTrips) {
  InstrumentedFilter f(std::make_unique<CuckooFilter>(4096, 12), 0.002);
  const auto keys = GenerateDistinctKeys(1000, 91);
  f.InsertMany(keys);
  std::vector<uint8_t> out(keys.size());
  f.ContainsMany(keys, out.data());
  f.Erase(keys[0]);

  MetricsRegistry registry;
  registry.Register("rt", &f);
  const auto entries = registry.Snapshot();
  ASSERT_EQ(entries.size(), 1u);
  const std::string prom = obs::RenderPrometheus(entries);
  const std::string json = obs::RenderJson(entries);

  const MetricsSnapshot& snap = entries[0].snapshot;
  EXPECT_FALSE(snap.counters.empty());
  EXPECT_FALSE(snap.gauges.empty());
  EXPECT_FALSE(snap.histograms.empty());
  for (const auto& c : snap.counters) {
    const std::string prom_line = "bbf_" + c.name + "{filter=\"rt\"} " +
                                  std::to_string(c.value) + "\n";
    EXPECT_NE(prom.find(prom_line), std::string::npos) << prom_line;
    const std::string json_frag =
        "\"" + c.name + "\": " + std::to_string(c.value);
    EXPECT_NE(json.find(json_frag), std::string::npos) << json_frag;
  }
  for (const auto& g : snap.gauges) {
    const std::string value = obs::FormatMetricValue(g.value);
    const std::string prom_line =
        "bbf_" + g.name + "{filter=\"rt\"} " + value + "\n";
    EXPECT_NE(prom.find(prom_line), std::string::npos) << prom_line;
    const std::string json_frag = "\"" + g.name + "\": " + value;
    EXPECT_NE(json.find(json_frag), std::string::npos) << json_frag;
  }
  for (const auto& h : snap.histograms) {
    EXPECT_NE(prom.find("# TYPE bbf_" + h.name + " histogram"),
              std::string::npos)
        << h.name;
    const std::string count_line = "bbf_" + h.name + "_count{filter=\"rt\"} " +
                                   std::to_string(h.count) + "\n";
    EXPECT_NE(prom.find(count_line), std::string::npos) << count_line;
    const std::string sum_line = "bbf_" + h.name + "_sum{filter=\"rt\"} " +
                                 std::to_string(h.sum) + "\n";
    EXPECT_NE(prom.find(sum_line), std::string::npos) << sum_line;
    EXPECT_NE(json.find("\"" + h.name + "\": {\"bounds\""), std::string::npos)
        << h.name;
  }
}


// --- Load-quarantine counter through the exporter ----------------------------

TEST(InstrumentedFilter, LoadQuarantineExportsMonotoneCounter) {
  const auto factory = [](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<CuckooFilter>(cap, 12);
  };
  auto sharded = std::make_unique<ShardedFilter>(500, 4, factory);
  ShardedFilter* inner = sharded.get();
  const auto keys = GenerateDistinctKeys(1500, TestSeed(81));
  for (uint64_t k : keys) sharded->Insert(k);
  std::stringstream ss;
  ASSERT_TRUE(sharded->Save(ss));
  std::string bytes = ss.str();
  bytes[bytes.size() * 3 / 4] ^= 0x40;  // Inside some shard's blob.

  // Two corrupt loads in a row: the per-call report resets, the counter
  // must not.
  uint64_t reported = 0;
  for (int round = 0; round < 2; ++round) {
    ShardedFilter::LoadReport report;
    std::istringstream broken(bytes);
    ASSERT_TRUE(inner->LoadWithReport(broken, &report));
    ASSERT_FALSE(report.AllHealthy());
    reported += report.quarantined.size();
    EXPECT_EQ(inner->TotalQuarantinedShards(), reported);
  }

  InstrumentedFilter f(std::move(sharded), 0.002);
  const MetricsSnapshot snap = f.Snapshot();
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "load_quarantined_shards_total") {
      EXPECT_EQ(c.value, reported);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "sharded snapshot must export the quarantine count";
}

// --- LSM lifecycle metrics through the exporters -----------------------------

TEST(Exporters, LsmLifecycleGoldenBytes) {
  // A fresh volatile tree renders all-zero lifecycle metrics with a fixed
  // name set and order — byte-validated like the TinySnapshot goldens so
  // scrape consumers can rely on the schema.
  lsm::LsmTree db(lsm::LsmOptions{});
  MetricsRegistry registry;
  registry.Register("lsm", [&db] { return db.ObsSnapshot(); });
  const std::string prom = obs::RenderPrometheus(registry.Snapshot());
  const std::string want_prom =
      "# TYPE bbf_lsm_generations_committed_total counter\n"
      "bbf_lsm_generations_committed_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_persist_failures_total counter\n"
      "bbf_lsm_persist_failures_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_wal_append_failures_total counter\n"
      "bbf_lsm_wal_append_failures_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_wal_records_replayed_total counter\n"
      "bbf_lsm_wal_records_replayed_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_filters_quarantined_total counter\n"
      "bbf_lsm_filters_quarantined_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_filters_rebuilt_total counter\n"
      "bbf_lsm_filters_rebuilt_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_manifest_fallbacks_total counter\n"
      "bbf_lsm_manifest_fallbacks_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_quarantined_reads_total counter\n"
      "bbf_lsm_quarantined_reads_total{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_levels gauge\n"
      "bbf_lsm_levels{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_runs gauge\n"
      "bbf_lsm_runs{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_quarantined_runs gauge\n"
      "bbf_lsm_quarantined_runs{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_entries gauge\n"
      "bbf_lsm_entries{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_filter_bits gauge\n"
      "bbf_lsm_filter_bits{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_generation gauge\n"
      "bbf_lsm_generation{filter=\"lsm\"} 0\n"
      "# TYPE bbf_lsm_write_amplification gauge\n"
      "bbf_lsm_write_amplification{filter=\"lsm\"} 0\n";
  EXPECT_EQ(prom, want_prom);
  const std::string json = obs::RenderJson(registry.Snapshot());
  const std::string want_json =
      "{\n"
      "  \"filters\": [\n"
      "    {\n"
      "      \"filter\": \"lsm\",\n"
      "      \"counters\": {\"lsm_generations_committed_total\": 0, "
      "\"lsm_persist_failures_total\": 0, "
      "\"lsm_wal_append_failures_total\": 0, "
      "\"lsm_wal_records_replayed_total\": 0, "
      "\"lsm_filters_quarantined_total\": 0, "
      "\"lsm_filters_rebuilt_total\": 0, "
      "\"lsm_manifest_fallbacks_total\": 0, "
      "\"lsm_quarantined_reads_total\": 0},\n"
      "      \"gauges\": {\"lsm_levels\": 0, \"lsm_runs\": 0, "
      "\"lsm_quarantined_runs\": 0, \"lsm_entries\": 0, "
      "\"lsm_filter_bits\": 0, \"lsm_generation\": 0, "
      "\"lsm_write_amplification\": 0},\n"
      "      \"histograms\": {\n"
      "      }\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(json, want_json);
}

// --- Serving-layer lifecycle metrics through the exporters -------------------

TEST(Exporters, NetServerGoldenBytes) {
  // The wire front end's connection/frame lifecycle counters (DESIGN.md
  // §14) render under the same registry as filter internals. Name set,
  // order, and bytes are pinned: dashboards alert on these series.
  net::ServerMetrics m;
  m.accepted.Add(3);
  m.closed.Add(2);
  m.evicted_idle.Add(1);
  m.evicted_deadline.Add(1);
  m.frames_served.Add(12);
  m.nacked_busy.Add(4);
  m.malformed_rejected.Add(5);
  m.drained_inflight.Add(2);
  m.keys_looked_up.Add(640);
  m.keys_inserted.Add(512);
  m.keys_insert_nacked.Add(7);
  m.http_scrapes.Add(1);
  m.tuner_ctl.Add(2);
  MetricsRegistry registry;
  registry.Register("net", [&m] { return m.Snapshot(); });
  const std::string prom = obs::RenderPrometheus(registry.Snapshot());
  const std::string want_prom =
      "# TYPE bbf_net_connections_accepted_total counter\n"
      "bbf_net_connections_accepted_total{filter=\"net\"} 3\n"
      "# TYPE bbf_net_connections_closed_total counter\n"
      "bbf_net_connections_closed_total{filter=\"net\"} 2\n"
      "# TYPE bbf_net_connections_evicted_idle_total counter\n"
      "bbf_net_connections_evicted_idle_total{filter=\"net\"} 1\n"
      "# TYPE bbf_net_connections_evicted_deadline_total counter\n"
      "bbf_net_connections_evicted_deadline_total{filter=\"net\"} 1\n"
      "# TYPE bbf_net_frames_served_total counter\n"
      "bbf_net_frames_served_total{filter=\"net\"} 12\n"
      "# TYPE bbf_net_frames_nacked_busy_total counter\n"
      "bbf_net_frames_nacked_busy_total{filter=\"net\"} 4\n"
      "# TYPE bbf_net_frames_malformed_total counter\n"
      "bbf_net_frames_malformed_total{filter=\"net\"} 5\n"
      "# TYPE bbf_net_frames_drained_inflight_total counter\n"
      "bbf_net_frames_drained_inflight_total{filter=\"net\"} 2\n"
      "# TYPE bbf_net_keys_looked_up_total counter\n"
      "bbf_net_keys_looked_up_total{filter=\"net\"} 640\n"
      "# TYPE bbf_net_keys_inserted_total counter\n"
      "bbf_net_keys_inserted_total{filter=\"net\"} 512\n"
      "# TYPE bbf_net_keys_insert_nacked_total counter\n"
      "bbf_net_keys_insert_nacked_total{filter=\"net\"} 7\n"
      "# TYPE bbf_net_http_scrapes_total counter\n"
      "bbf_net_http_scrapes_total{filter=\"net\"} 1\n"
      "# TYPE bbf_net_tuner_ctl_total counter\n"
      "bbf_net_tuner_ctl_total{filter=\"net\"} 2\n";
  EXPECT_EQ(prom, want_prom);
  const std::string json = obs::RenderJson(registry.Snapshot());
  const std::string want_json =
      "{\n"
      "  \"filters\": [\n"
      "    {\n"
      "      \"filter\": \"net\",\n"
      "      \"counters\": {\"net_connections_accepted_total\": 3, "
      "\"net_connections_closed_total\": 2, "
      "\"net_connections_evicted_idle_total\": 1, "
      "\"net_connections_evicted_deadline_total\": 1, "
      "\"net_frames_served_total\": 12, "
      "\"net_frames_nacked_busy_total\": 4, "
      "\"net_frames_malformed_total\": 5, "
      "\"net_frames_drained_inflight_total\": 2, "
      "\"net_keys_looked_up_total\": 640, "
      "\"net_keys_inserted_total\": 512, "
      "\"net_keys_insert_nacked_total\": 7, "
      "\"net_http_scrapes_total\": 1, "
      "\"net_tuner_ctl_total\": 2},\n"
      "      \"gauges\": {},\n"
      "      \"histograms\": {\n"
      "      }\n"
      "    }\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(json, want_json);
}

}  // namespace
}  // namespace bbf
