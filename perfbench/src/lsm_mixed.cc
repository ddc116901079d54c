// lsm_mixed: one thread driving a volatile LSM tree with a write-heavy mix.
//
// Leveling with T = 4 and a 4096-entry memtable, a Taffy memtable filter,
// quotient point filters at 10 bits/key and Memento range filters; the
// tree is volatile (no WAL, no fsync), so the disk is not measured. After
// a 200K-key preload: 50% Put of fresh keys, 45% Get (half present, half
// absent), 5% Scan of width 1000 starting just above a resident key. It
// is the only workload that builds filters (at flush and compaction), and
// absent Gets turn filter false positives into wasted simulated reads.
//
// A run is a series of identical rounds, each from an empty tree, so the
// tree's shape, its flushes and compactions, and hence fpr, depend only on
// the seed and not on how many operations fit in the time.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "apps/lsm/lsm_tree.h"
#include "apps/lsm/run.h"
#include "common.h"
#include "core/filter.h"
#include "range/range_filter.h"

namespace perfbench {
namespace {

using bbf::lsm::LsmTree;

constexpr uint64_t kTag = 3;
constexpr uint64_t kPreload = 200000;
constexpr uint64_t kOpsPerRound = 1000000;
constexpr size_t kBlock = 20;  // Divides kOpsPerRound.
constexpr uint64_t kScanWidth = 1000;
constexpr uint64_t kAbsentDomain = uint64_t{1} << 40;
constexpr uint64_t kScanCheckEvery = 8;  // Scans compared to the reference.
constexpr size_t kMergeBatch = 32768;    // Reference merge granularity.
constexpr uint64_t kFprProbes = uint64_t{1} << 18;
constexpr int kMinRounds = 3;
constexpr size_t kFlushKeys = 4096;
constexpr int kFlushBuilds = 16;

bbf::lsm::LsmOptions Config() {
  bbf::lsm::LsmOptions o;
  o.memtable_entries = 4096;
  o.size_ratio = 4;
  o.tiering = false;
  o.point_filter = bbf::lsm::PointFilterKind::kQuotient;
  o.point_bits_per_key = 10.0;
  o.range_filter = bbf::lsm::RangeFilterKind::kMemento;
  o.range_bits_per_key = 14.0;
  o.memtable_filter = bbf::lsm::MemtableFilterKind::kTaffy;
  return o;  // dir stays empty: volatile.
}

uint64_t ValueOf(uint64_t s, uint64_t key) { return KeyAt(~s, key); }

// Every key put so far, with a sorted copy of a prefix, so a sampled Scan
// can be compared with the exact answer.
class Reference {
 public:
  Reference(uint64_t s, const std::vector<uint64_t>& preload)
      : s_(s), keys_(preload), sorted_(preload) {
    keys_.reserve(preload.size() + kOpsPerRound);
    std::sort(sorted_.begin(), sorted_.end());
  }
  void Put(uint64_t key) { keys_.push_back(key); }
  uint64_t Pick(Rng& rng) const { return keys_[rng.Below(keys_.size())]; }

  std::vector<std::pair<uint64_t, uint64_t>> Scan(uint64_t lo, uint64_t hi) {
    if (keys_.size() - sorted_.size() >= kMergeBatch) {
      const size_t mid = sorted_.size();
      sorted_.insert(sorted_.end(), keys_.begin() + mid, keys_.end());
      std::sort(sorted_.begin() + mid, sorted_.end());
      std::inplace_merge(sorted_.begin(), sorted_.begin() + mid,
                         sorted_.end());
    }
    std::vector<uint64_t> hit;
    for (auto it = std::lower_bound(sorted_.begin(), sorted_.end(), lo);
         it != sorted_.end() && *it <= hi; ++it) {
      hit.push_back(*it);
    }
    for (size_t i = sorted_.size(); i < keys_.size(); ++i) {
      if (keys_[i] >= lo && keys_[i] <= hi) hit.push_back(keys_[i]);
    }
    std::sort(hit.begin(), hit.end());
    std::vector<std::pair<uint64_t, uint64_t>> out;
    for (uint64_t k : hit) out.emplace_back(k, ValueOf(s_, k));
    return out;
  }

 private:
  uint64_t s_;
  std::vector<uint64_t> keys_;    // In put order.
  std::vector<uint64_t> sorted_;  // keys_[0, sorted_.size()) in key order.
};

struct Inputs {
  uint64_t s = 0;
  std::vector<uint64_t> preload;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.s = StreamSeed(seed, kTag);
  in.preload.resize(kPreload);
  for (uint64_t i = 0; i < kPreload; ++i) in.preload[i] = PresentKey(in.s, i);
  return in;
}

// From empty to ready: a fresh tree holding the preload. Returns seconds.
double SetUp(const Inputs& in, std::unique_ptr<LsmTree>* tree) {
  tree->reset();
  const uint64_t t0 = NowNs();
  *tree = std::make_unique<LsmTree>(Config());
  for (uint64_t k : in.preload) (*tree)->Put(k, ValueOf(in.s, k));
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// What the traced round records beside the timings.
struct LayerCounts {
  bbf::lsm::IoStats get_io;
  bbf::lsm::IoStats scan_io;
  uint64_t gets = 0;
  uint64_t scans = 0;
  uint64_t flushes = 0;
  uint64_t flush_ns = 0;
  std::vector<double> memtable_bits_per_key;
};

struct Samples {
  uint64_t ops = 0;
  uint64_t ops_ns = 0;
  uint64_t gets = 0;
  uint64_t gets_ns = 0;
  std::vector<double> get_us;
  // Gets of absent keys alone: half of all Gets, and much faster than the
  // rest, so the median of all Gets would fall in the gap between the two.
  std::vector<double> absent_get_us;
  std::vector<double> put_us;
};

bbf::lsm::IoStats Delta(const bbf::lsm::IoStats& a,
                        const bbf::lsm::IoStats& b) {
  bbf::lsm::IoStats d;
  d.data_reads = b.data_reads - a.data_reads;
  d.filter_probes = b.filter_probes - a.filter_probes;
  d.runs_consulted = b.runs_consulted - a.runs_consulted;
  d.false_probes = b.false_probes - a.false_probes;
  d.quarantined_reads = b.quarantined_reads - a.quarantined_reads;
  return d;
}

// The measured mix: kOpsPerRound operations drawn from a stream that is
// the same in every round. Each call is timed on its own, so drawing the
// next operation and checking its answer stay outside the figures. With
// `log` set, each operation is a span; with `counts` set, the layer
// counters are gathered too.
void RunMix(const Inputs& in, LsmTree& tree, SpanLog* log,
            LayerCounts* counts, Samples* out, Report* report) {
  Reference ref(in.s, in.preload);
  Rng rng(in.s);
  uint64_t next_fresh = kPreload;
  uint64_t scans = 0;
  // Operation kinds come in shuffled blocks of 20 (10 Put, 9 Get, 1 Scan),
  // so every round and every seed does the same number of each and the
  // tree goes through the same flushes and compactions.
  enum Op : uint8_t { kPut, kGet, kScan };
  Op block[kBlock];
  for (uint64_t j = 0; j < kOpsPerRound; ++j) {
    if (j % kBlock == 0) {
      for (size_t i = 0; i < kBlock; ++i) {
        block[i] = i < kBlock / 2 ? kPut : i + 1 < kBlock ? kGet : kScan;
      }
      for (size_t i = kBlock - 1; i > 0; --i) {
        std::swap(block[i], block[rng.Below(i + 1)]);
      }
    }
    const Op op = block[j % kBlock];
    if (op == kPut) {
      const uint64_t k = PresentKey(in.s, next_fresh++);
      const uint64_t v = ValueOf(in.s, k);
      size_t bits_before = 0;
      double memtable_bpk = 0.0;  // Kept only when this Put flushes.
      if (counts != nullptr) {
        bits_before = tree.TotalFilterBits();
        const bbf::Filter* mf = tree.memtable_filter();
        if (mf != nullptr && mf->NumKeys() > 0) {
          memtable_bpk = static_cast<double>(mf->SpaceBits()) / mf->NumKeys();
        }
      }
      const uint32_t sp = log ? log->Open("lsm.put", j) : kNoSpan;
      const uint64_t c0 = NowNs();
      tree.Put(k, v);
      const uint64_t ns = NowNs() - c0;
      if (log) log->Close(sp, 1);
      out->put_us.push_back(static_cast<double>(ns) / 1e3);
      out->ops_ns += ns;
      ref.Put(k);
      // A Put after which the runs' filter bits changed flushed the
      // memtable (and perhaps compacted).
      if (counts != nullptr && tree.TotalFilterBits() != bits_before) {
        ++counts->flushes;
        counts->flush_ns += ns;
        if (memtable_bpk > 0) {
          counts->memtable_bits_per_key.push_back(memtable_bpk);
        }
      }
    } else if (op == kGet) {
      const bool present = rng.Next() & 1;
      const uint64_t k = present ? ref.Pick(rng)
                                 : AbsentKey(in.s, rng.Below(kAbsentDomain));
      const bbf::lsm::IoStats before = tree.io();
      const uint32_t sp = log ? log->Open("lsm.get", j) : kNoSpan;
      const uint64_t c0 = NowNs();
      const std::optional<uint64_t> got = tree.Get(k);
      const uint64_t ns = NowNs() - c0;
      if (log) log->Close(sp, 1);
      out->get_us.push_back(static_cast<double>(ns) / 1e3);
      if (!present) out->absent_get_us.push_back(out->get_us.back());
      out->ops_ns += ns;
      out->gets_ns += ns;
      ++out->gets;
      if (present ? got != ValueOf(in.s, k) : got.has_value()) {
        ++report->failed;
      }
      if (counts != nullptr) {
        counts->get_io += Delta(before, tree.io());
        ++counts->gets;
      }
    } else {
      const uint64_t k = ref.Pick(rng);
      constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
      const uint64_t lo = k == kMax ? k : k + 1;
      const uint64_t hi = lo > kMax - (kScanWidth - 1) ? kMax
                                                       : lo + kScanWidth - 1;
      const bbf::lsm::IoStats before = tree.io();
      const uint32_t sp = log ? log->Open("lsm.scan", j) : kNoSpan;
      const uint64_t c0 = NowNs();
      const auto got = tree.Scan(lo, hi);
      const uint64_t ns = NowNs() - c0;
      if (log) log->Close(sp, 1);
      out->ops_ns += ns;
      // Sampled scans are compared with the reference, and so, untimed, is
      // the same range widened down to the resident key itself, so a scan
      // that loses keys is caught as well as one that invents them.
      if (++scans % kScanCheckEvery == 0) {
        report->failed += got != ref.Scan(lo, hi);
        report->failed += tree.Scan(k, hi) != ref.Scan(k, hi);
        ++report->attempted;
      }
      if (counts != nullptr) {
        counts->scan_io += Delta(before, tree.io());
        ++counts->scans;
      }
    }
    ++out->ops;
  }
  report->attempted += kOpsPerRound;
}

// Filter false-positive rate on absent keys: the share of point-filter
// probes made by absent Gets that let a read through.
double AbsentFpr(const Inputs& in, LsmTree& tree, Report* report) {
  const bbf::lsm::IoStats before = tree.io();
  for (uint64_t i = 0; i < kFprProbes; ++i) {
    report->failed += tree.Get(AbsentKey(in.s, kAbsentDomain + i)).has_value();
  }
  report->attempted += kFprProbes;
  const bbf::lsm::IoStats d = Delta(before, tree.io());
  return d.filter_probes == 0
             ? 0.0
             : static_cast<double>(d.false_probes) / d.filter_probes;
}

}  // namespace

void RunLsmMixed(const Options& opt, double seconds, Tracer* tracer,
                 Report* report) {
  const Inputs in = MakeInputs(opt.seed);
  // One CPU throughout, so the tree's caches are not lost to migrations.
  const CpuConfinement cpu(1);
  SpanLog* log = tracer ? &tracer->NewLog(size_t{1} << 18) : nullptr;
  // Per-round figures. Every round does the same work, so a round differs
  // from the others only by how much the host slowed it: on a shared
  // virtual machine, co-tenants' load slowed rounds by up to a fifth in
  // spells of a few seconds, and moved the median over rounds by as much
  // between runs. The best round is the one such spells missed, and it
  // moved less between runs, unless the load lasted through a whole run.
  // So each timing is its best round; set-up time is the median over
  // rounds.
  std::vector<double> setup_s;
  std::vector<double> mops;
  std::vector<double> get_mops;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> put_p9999;
  // Rounds run until their wall time, set-up and answer checks included,
  // reaches `seconds`.
  double elapsed_s = 0.0;
  std::unique_ptr<LsmTree> tree;
  for (int round = 0; round < kMinRounds || elapsed_s < seconds; ++round) {
    const uint64_t r0 = NowNs();
    setup_s.push_back(SetUp(in, &tree));
    Samples smp;
    RunMix(in, *tree, log, nullptr, &smp, report);
    elapsed_s += static_cast<double>(NowNs() - r0) / 1e9;
    mops.push_back(static_cast<double>(smp.ops) * 1e3 / smp.ops_ns);
    get_mops.push_back(static_cast<double>(smp.gets) * 1e3 / smp.gets_ns);
    p50.push_back(Quantile(smp.absent_get_us, 0.50));
    p99.push_back(Quantile(smp.get_us, 0.99));
    put_p9999.push_back(Quantile(smp.put_us, 0.9999));
  }
  // Every round ends in the same state, so the last one stands for all.
  const double fpr = AbsentFpr(in, *tree, report);
  const double bits_per_key =
      static_cast<double>(tree->TotalFilterBits()) / tree->TotalEntries();
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("throughput_mops", Quantile(mops, 1.0), "Mops");
  report->Add("lookup_mops", Quantile(get_mops, 1.0), "Mops");
  report->Add("lookup_p50_us", Quantile(p50, 0.0), "us");
  report->Add("lookup_tail_us", Quantile(p99, 0.0), "us");
  report->Add("write_tail_us", Quantile(put_p9999, 0.0), "us");
  report->Add("fpr", fpr, "ratio");
  report->Add("bits_per_key", bits_per_key, "bits");
}

void TraceLsmLayers(const Options& opt, Tracer* tracer, Report* report) {
  const Inputs in = MakeInputs(opt.seed);
  const CpuConfinement cpu(1);
  SpanLog& log = tracer->NewLog(size_t{1} << 18);
  std::unique_ptr<LsmTree> tree;
  SetUp(in, &tree);
  Samples smp;
  LayerCounts lc;
  RunMix(in, *tree, &log, &lc, &smp, report);
  const double gets = static_cast<double>(std::max<uint64_t>(lc.gets, 1));
  const double scans = static_cast<double>(std::max<uint64_t>(lc.scans, 1));
  report->Add("lsm.filter_probes_per_get", lc.get_io.filter_probes / gets,
              "count");
  report->Add("lsm.false_probes_per_get", lc.get_io.false_probes / gets,
              "count");
  report->Add("lsm.data_reads_per_get", lc.get_io.data_reads / gets, "count");
  report->Add("lsm.data_reads_per_scan", lc.scan_io.data_reads / scans,
              "count");
  report->Add("lsm.write_amp", tree->WriteAmplification(), "x");
  report->Add("lsm.flushes", static_cast<double>(lc.flushes), "count");
  report->Add("lsm.flush_s", static_cast<double>(lc.flush_ns) / 1e9, "s");
  report->Add("expandable.memtable_bits_per_key",
              Median(lc.memtable_bits_per_key), "bits");

  // Filter builds at flush size and at the size of the whole tree (the
  // largest level holds most of it), on the workload's own keys.
  std::vector<uint64_t> all = in.preload;
  for (uint64_t i = kPreload; i < kPreload + kOpsPerRound / 2; ++i) {
    all.push_back(PresentKey(in.s, i));
  }
  std::sort(all.begin(), all.end());
  uint64_t built = 0;
  SpanLog& build_log = tracer->NewLog(1 << 10);
  const auto build = [&](const char* name, const std::vector<uint64_t>& keys,
                         bool range) {
    ScopedSpan sp(&build_log, name, keys.size());
    if (range) {
      built += bbf::lsm::BuildRangeFilter(
                   keys, bbf::lsm::RangeFilterKind::kMemento, 14.0) != nullptr;
    } else {
      built += bbf::lsm::BuildPointFilter(
                   keys, bbf::lsm::PointFilterKind::kQuotient, 10.0, in.s) !=
               nullptr;
    }
    sp.set_items(keys.size());
  };
  for (int i = 0; i < kFlushBuilds; ++i) {
    std::vector<uint64_t> batch;
    for (size_t k = i; k < all.size() && batch.size() < kFlushKeys;
         k += all.size() / kFlushKeys) {
      batch.push_back(all[k]);
    }
    build("quotient.build.flush", batch, false);
    build("range.memento_build.flush", batch, true);
  }
  build("quotient.build.large", all, false);
  build("range.memento_build.large", all, true);
  report->attempted += 2 * kFlushBuilds + 2;
  report->failed += 2 * kFlushBuilds + 2 - built;
  report->Add("quotient.build_ns_per_key",
              tracer->Sum("quotient.build.flush").NsPerItem(), "ns");
  report->Add("quotient.build_ns_per_key_large",
              tracer->Sum("quotient.build.large").NsPerItem(), "ns");
  report->Add("range.memento_build_ns_per_key",
              tracer->Sum("range.memento_build.flush").NsPerItem(), "ns");
  report->Add("range.memento_build_ns_per_key_large",
              tracer->Sum("range.memento_build.large").NsPerItem(), "ns");
}

}  // namespace perfbench
