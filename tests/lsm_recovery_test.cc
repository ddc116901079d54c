// Crash-safety and degraded-mode recovery tests for the LSM filter
// lifecycle (DESIGN.md §13): a crash-point fault sweep over every
// persistence mutation (old-or-new-generation atomicity, zero lost acked
// keys), plus at-rest corruption of every file kind (quarantined filters
// served filterless, manifest fallback, clean failure — never wrong
// answers).

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "apps/lsm/lsm_tree.h"
#include "apps/lsm/manifest.h"
#include "fault_injection.h"
#include "legacy_frames.h"
#include "obs/export.h"
#include "test_paths.h"
#include "test_seed.h"
#include "util/random.h"

namespace bbf::lsm {
namespace {

// --- Crash-injecting storage environment -------------------------------------

/// Wraps the real environment and crashes at an exact mutation index: the
/// armed op fails (optionally tearing a write in half first — the torn-
/// sector crash), and every later mutation fails too, like a process that
/// died mid-syscall. Reads never fault (recovery runs post-mortem).
class CrashEnv : public StorageEnv {
 public:
  CrashEnv() : base_(RealEnv()) {}

  /// Crash at the `crash_at`-th mutating op from now (0-based).
  void Arm(uint64_t crash_at, bool torn) {
    armed_ = true;
    torn_ = torn;
    crash_at_ = crash_at;
    mutations_ = 0;
    crashed_ = false;
  }
  /// Healthy mode; also used for post-crash recovery.
  void Disarm() {
    armed_ = false;
    crashed_ = false;
    mutations_ = 0;
    ops_.clear();
  }
  uint64_t mutations() const { return mutations_; }
  bool crashed() const { return crashed_; }
  /// One kind char per mutation seen since Disarm/Arm: 'a'ppend,
  /// 'w'rite, 'r'ename, 'd'elete.
  const std::vector<char>& ops() const { return ops_; }

  bool CreateDir(const std::string& path) override {
    return base_->CreateDir(path);  // Setup, not a crash point.
  }
  bool WriteFile(const std::string& path, std::string_view bytes) override {
    switch (Tick('w')) {
      case Fate::kFail:
        return false;
      case Fate::kTear:
        base_->WriteFile(path, bytes.substr(0, bytes.size() / 2));
        return false;
      case Fate::kRun:
        return base_->WriteFile(path, bytes);
    }
    return false;
  }
  bool AppendFile(const std::string& path, std::string_view bytes) override {
    switch (Tick('a')) {
      case Fate::kFail:
        return false;
      case Fate::kTear:
        base_->AppendFile(path, bytes.substr(0, bytes.size() / 2));
        return false;
      case Fate::kRun:
        return base_->AppendFile(path, bytes);
    }
    return false;
  }
  bool Rename(const std::string& from, const std::string& to) override {
    // Renames are atomic: a crash either skips or completes them, never
    // tears them.
    if (Tick('r') != Fate::kRun) return false;
    return base_->Rename(from, to);
  }
  bool Remove(const std::string& path) override {
    if (Tick('d') != Fate::kRun) return false;
    return base_->Remove(path);
  }

  bool ReadFileBytes(const std::string& path, std::string* out) const override {
    return base_->ReadFileBytes(path, out);
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  std::vector<std::string> ListDir(const std::string& dir) const override {
    return base_->ListDir(dir);
  }

 private:
  enum class Fate { kRun, kFail, kTear };

  Fate Tick(char kind) {
    ops_.push_back(kind);
    const uint64_t idx = mutations_++;
    if (crashed_) return Fate::kFail;
    if (armed_ && idx == crash_at_) {
      crashed_ = true;
      return torn_ ? Fate::kTear : Fate::kFail;
    }
    return Fate::kRun;
  }

  StorageEnv* base_;
  bool armed_ = false;
  bool torn_ = false;
  bool crashed_ = false;
  uint64_t crash_at_ = 0;
  uint64_t mutations_ = 0;
  std::vector<char> ops_;
};

// --- Shared helpers ----------------------------------------------------------

// An empty directory owned by the running test (and parameter instance).
std::string FreshDir(const std::string& name) {
  const std::string dir = TestScopedPath(name);
  std::filesystem::remove_all(dir);
  return dir;
}

uint64_t ValueOf(uint64_t key) { return key * 2654435761u + 17; }

/// Fills a tree with `n` distinct keys (value = ValueOf(key)) and returns
/// the keys inserted.
std::vector<uint64_t> Populate(LsmTree* db, int n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) {
    const uint64_t k = rng.NextBelow(uint64_t{1} << 40);
    db->Put(k, ValueOf(k));
    keys.push_back(k);
  }
  return keys;
}

std::vector<std::string> FilesMatching(const std::string& dir,
                                       std::string_view suffix) {
  std::vector<std::string> out;
  for (const std::string& name : RealEnv()->ListDir(dir)) {
    if (name.size() >= suffix.size() &&
        name.substr(name.size() - suffix.size()) == suffix) {
      out.push_back(dir + "/" + name);
    }
  }
  return out;
}

void CorruptFile(const std::string& path, uint64_t seed) {
  std::string bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes)) << path;
  const auto faults = fault::BitFlipCorruptions(bytes, seed, 1);
  ASSERT_FALSE(faults.empty());
  ASSERT_TRUE(fault::WriteFileBytes(path, faults[0].blob)) << path;
}

// --- Round-trip and WAL basics -----------------------------------------------

TEST(LsmRecovery, PersistAndReopenRoundTrip) {
  const uint64_t seed = TestSeed(0xD15C);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.range_filter = RangeFilterKind::kPrefixBloom;
  o.dir = FreshDir("roundtrip");
  std::vector<uint64_t> keys;
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    keys = Populate(db.get(), 3000, seed);
    EXPECT_GT(db->generation(), 0u);
  }
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  EXPECT_GT(db->generation(), 0u);
  EXPECT_EQ(db->recovery().filters_quarantined, 0u);
  for (uint64_t k : keys) {
    ASSERT_EQ(db->Get(k), std::optional<uint64_t>(ValueOf(k))) << k;
  }
  // Scans recover too (the range filters loaded or rebuilt).
  EXPECT_EQ(db->Scan(0, ~uint64_t{0}).size(), keys.size());
  std::filesystem::remove_all(o.dir);
}

TEST(LsmRecovery, WalReplayRecoversUnflushedAckedOps) {
  LsmOptions o;
  o.memtable_entries = 1024;  // Nothing below will flush.
  o.dir = FreshDir("wal");
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 1; k <= 200; ++k) ASSERT_TRUE(db->Put(k, ValueOf(k)));
    ASSERT_TRUE(db->Delete(7));
    EXPECT_EQ(db->generation(), 0u);  // Never flushed, never committed.
  }
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->recovery().wal_records_replayed, 201u);
  EXPECT_EQ(db->Get(7), std::nullopt);
  for (uint64_t k = 1; k <= 200; ++k) {
    if (k == 7) continue;
    ASSERT_EQ(db->Get(k), std::optional<uint64_t>(ValueOf(k))) << k;
  }
  std::filesystem::remove_all(o.dir);
}

TEST(LsmRecovery, TornWalTailIsDroppedAndLogUnwedged) {
  LsmOptions o;
  o.memtable_entries = 1024;
  o.dir = FreshDir("torn_wal");
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    for (uint64_t k = 1; k <= 50; ++k) ASSERT_TRUE(db->Put(k, ValueOf(k)));
  }
  // Simulate a torn append: half of a record's frame at the tail.
  const std::string wal = o.dir + "/" + std::string(kWalFileName);
  std::string bytes;
  ASSERT_TRUE(fault::ReadFileBytes(wal, &bytes));
  const std::string frame = EncodeWalRecord(Entry{999, 1, false});
  ASSERT_TRUE(fault::WriteFileBytes(
      wal, bytes + frame.substr(0, frame.size() / 2)));
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    EXPECT_EQ(db->recovery().wal_records_replayed, 50u);
    EXPECT_EQ(db->Get(999), std::nullopt);  // Torn op was never acked.
    // The log must be unwedged: new acked ops survive the next reopen.
    ASSERT_TRUE(db->Put(1000, ValueOf(1000)));
  }
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->Get(1000), std::optional<uint64_t>(ValueOf(1000)));
  for (uint64_t k = 1; k <= 50; ++k) {
    ASSERT_EQ(db->Get(k), std::optional<uint64_t>(ValueOf(k))) << k;
  }
  std::filesystem::remove_all(o.dir);
}

// --- The crash-point fault sweep ---------------------------------------------

struct SweepConfig {
  const char* name;
  bool tiering;
  FilterAllocation allocation;
  MemtableFilterKind memtable_filter;
  PointFilterKind point_filter;
  RangeFilterKind range_filter;
};

class LsmCrashSweep : public ::testing::TestWithParam<SweepConfig> {};

/// Runs the workload against `db`, maintaining the acked reference model:
/// an op is applied to `ref` only when the tree acked it (WAL append
/// durable). Stops at the first crash. Returns the number of ops issued.
uint64_t RunWorkload(LsmTree* db, CrashEnv* env, uint64_t seed, int ops,
                     uint64_t domain,
                     std::map<uint64_t, uint64_t>* ref) {
  SplitMix64 rng(seed);
  uint64_t issued = 0;
  for (int i = 0; i < ops; ++i) {
    const uint64_t key = rng.NextBelow(domain);
    const bool del = rng.NextDouble() < 0.2;
    ++issued;
    if (del) {
      if (db->Delete(key)) ref->erase(key);
    } else {
      const uint64_t value = rng.Next();
      if (db->Put(key, value)) (*ref)[key] = value;
    }
    if (env->crashed()) break;
  }
  return issued;
}

TEST_P(LsmCrashSweep, EveryCrashPointRecoversOldOrNewWithAllAckedKeys) {
  const SweepConfig& cfg = GetParam();
  const uint64_t seed = TestSeed(0xC4A5);
  BBF_ANNOUNCE_SEED(seed);
  constexpr int kOps = 320;
  constexpr uint64_t kDomain = 240;

  LsmOptions o;
  o.memtable_entries = 48;
  o.size_ratio = 3;
  o.tiering = cfg.tiering;
  o.allocation = cfg.allocation;
  o.memtable_filter = cfg.memtable_filter;
  o.point_filter = cfg.point_filter;
  o.range_filter = cfg.range_filter;

  CrashEnv env;

  // Pass 1 (healthy): learn the mutation schedule so the sweep can hit
  // every persistence op and a sample of WAL appends. Disarm AFTER Open
  // so the recorded indices line up with the armed runs, where Arm
  // resets the mutation counter post-Open.
  o.dir = FreshDir(std::string("sweep_probe_") + cfg.name);
  {
    env.Disarm();
    auto db = LsmTree::Open(o, &env);
    ASSERT_NE(db, nullptr);
    env.Disarm();
    std::map<uint64_t, uint64_t> ref;
    RunWorkload(db.get(), &env, seed, kOps, kDomain, &ref);
  }
  std::filesystem::remove_all(o.dir);
  const std::vector<char> schedule = env.ops();
  ASSERT_GT(schedule.size(), 0u);

  std::vector<uint64_t> crash_points;
  for (uint64_t i = 0; i < schedule.size(); ++i) {
    // Every non-append mutation (the whole commit protocol: staging
    // writes, renames, GC removes) plus every 29th WAL append.
    if (schedule[i] != 'a' || i % 29 == 0) crash_points.push_back(i);
  }
  // The schedule shifts once a crash aborts a persist, so also probe past
  // the healthy count a little.
  crash_points.push_back(schedule.size() + 3);

  for (const bool torn : {false, true}) {
    for (const uint64_t crash_at : crash_points) {
      SCOPED_TRACE(::testing::Message()
                   << cfg.name << " crash_at=" << crash_at
                   << " torn=" << torn);
      o.dir = FreshDir(std::string("sweep_") + cfg.name);
      std::map<uint64_t, uint64_t> ref;
      {
        env.Disarm();
        auto db = LsmTree::Open(o, &env);
        ASSERT_NE(db, nullptr);
        env.Arm(crash_at, torn);
        RunWorkload(db.get(), &env, seed, kOps, kDomain, &ref);
      }  // "Process death": the tree object is destroyed mid-flight.
      env.Disarm();
      auto db = LsmTree::Open(o, &env);
      ASSERT_NE(db, nullptr) << "recovery must not fail after a crash";
      // Zero lost acked keys, zero resurrected or corrupted values: the
      // recovered tree answers exactly per the acked reference model.
      for (uint64_t k = 0; k < kDomain; ++k) {
        const auto it = ref.find(k);
        const auto got = db->Get(k);
        if (it == ref.end()) {
          ASSERT_EQ(got, std::nullopt) << "key " << k;
        } else {
          ASSERT_EQ(got, std::optional<uint64_t>(it->second)) << "key " << k;
        }
      }
      // The recovered tree must remain fully writable and durable.
      ASSERT_TRUE(db->Put(kDomain + 1, 42));
      EXPECT_EQ(db->Get(kDomain + 1), std::optional<uint64_t>(42));
      std::filesystem::remove_all(o.dir);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, LsmCrashSweep,
    ::testing::Values(
        SweepConfig{"leveling_uniform_taffy", false, FilterAllocation::kUniform,
                    MemtableFilterKind::kTaffy, PointFilterKind::kBloom,
                    RangeFilterKind::kPrefixBloom},
        SweepConfig{"leveling_monkey_ring", false, FilterAllocation::kMonkey,
                    MemtableFilterKind::kRing, PointFilterKind::kCuckoo,
                    RangeFilterKind::kNone},
        SweepConfig{"tiering_uniform_taffy", true, FilterAllocation::kUniform,
                    MemtableFilterKind::kTaffy, PointFilterKind::kXor,
                    RangeFilterKind::kGrafite},
        SweepConfig{"tiering_monkey_nomem", true, FilterAllocation::kMonkey,
                    MemtableFilterKind::kNone, PointFilterKind::kQuotient,
                    RangeFilterKind::kNone}),
    [](const ::testing::TestParamInfo<SweepConfig>& info) {
      return info.param.name;
    });

// --- At-rest corruption: quarantine and fallback -----------------------------

class LsmPointQuarantine : public ::testing::TestWithParam<PointFilterKind> {};

TEST_P(LsmPointQuarantine, CorruptPointFilterServedFilterlessThenRebuilt) {
  const uint64_t seed = TestSeed(0xB10C);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.point_filter = GetParam();
  o.dir = FreshDir("pq");
  std::vector<uint64_t> keys;
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    keys = Populate(db.get(), 1500, seed);
  }
  const auto pf_files = FilesMatching(o.dir, ".pf");
  ASSERT_FALSE(pf_files.empty());
  for (size_t i = 0; i < pf_files.size(); ++i) {
    CorruptFile(pf_files[i], seed + i);
  }
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  EXPECT_GT(db->recovery().filters_quarantined, 0u);
  EXPECT_GT(db->QuarantinedRuns(), 0u);
  // Degraded mode: every answer still correct, extra I/O charged.
  for (uint64_t k : keys) {
    ASSERT_EQ(db->Get(k), std::optional<uint64_t>(ValueOf(k))) << k;
  }
  EXPECT_GT(db->io().quarantined_reads, 0u);
  // The next flush rebuilds every quarantined filter from its run's keys
  // and persists the rebuilt snapshot.
  Populate(db.get(), static_cast<int>(o.memtable_entries), seed + 99);
  EXPECT_EQ(db->QuarantinedRuns(), 0u);
  EXPECT_GT(db->recovery().filters_rebuilt, 0u);
  auto db2 = LsmTree::Open(o);
  ASSERT_NE(db2, nullptr);
  EXPECT_EQ(db2->recovery().filters_quarantined, 0u);
  std::filesystem::remove_all(o.dir);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LsmPointQuarantine,
    ::testing::Values(PointFilterKind::kBloom, PointFilterKind::kBlockedBloom,
                      PointFilterKind::kXor, PointFilterKind::kRibbon,
                      PointFilterKind::kCuckoo, PointFilterKind::kQuotient),
    [](const ::testing::TestParamInfo<PointFilterKind>& info) {
      switch (info.param) {
        case PointFilterKind::kNone: return "None";
        case PointFilterKind::kBloom: return "Bloom";
        case PointFilterKind::kBlockedBloom: return "BlockedBloom";
        case PointFilterKind::kXor: return "Xor";
        case PointFilterKind::kRibbon: return "Ribbon";
        case PointFilterKind::kCuckoo: return "Cuckoo";
        case PointFilterKind::kQuotient: return "Quotient";
      }
      return "Unknown";
    });

// A run whose point-filter file holds a "quotient" frame in the slot
// layout the quotient families used before RsqfTable (same tag, old
// payload): recovery must not fail. That run is quarantined and served
// without a filter, every answer stays right, and the other runs keep
// their filters.
TEST(LsmRecovery, OldLayoutQuotientFilterFileIsQuarantined) {
  const uint64_t seed = TestSeed(0x01D);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.point_filter = PointFilterKind::kQuotient;
  o.dir = FreshDir("oldqf");
  std::vector<uint64_t> keys;
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    keys = Populate(db.get(), 600, seed);
  }
  const auto pf_files = FilesMatching(o.dir, ".pf");
  ASSERT_GT(pf_files.size(), 1u);
  ASSERT_TRUE(fault::WriteFileBytes(pf_files.front(), legacy::QuotientFrame()));
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->recovery().filters_quarantined, 1u);
  EXPECT_EQ(db->QuarantinedRuns(), 1u);
  for (uint64_t k : keys) {
    ASSERT_EQ(db->Get(k), std::optional<uint64_t>(ValueOf(k))) << k;
  }
  EXPECT_GT(db->io().quarantined_reads, 0u);
  db.reset();
  std::filesystem::remove_all(o.dir);
}

class LsmRangeRecovery : public ::testing::TestWithParam<RangeFilterKind> {};

TEST_P(LsmRangeRecovery, RangeFiltersRecoverOrRebuildAndScansStayCorrect) {
  const uint64_t seed = TestSeed(0x4A11);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.range_filter = GetParam();
  o.dir = FreshDir("rq");
  std::vector<uint64_t> keys;
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    keys = Populate(db.get(), 1500, seed);
  }
  // Prefix-bloom and memento snapshots persist: corrupt them to force
  // quarantine. Every other family has no snapshot payload — recovery
  // must come up filterless and rebuild at the next flush either way.
  const auto rf_files = FilesMatching(o.dir, ".rf");
  if (GetParam() == RangeFilterKind::kPrefixBloom ||
      GetParam() == RangeFilterKind::kMemento) {
    ASSERT_FALSE(rf_files.empty());
    for (size_t i = 0; i < rf_files.size(); ++i) {
      CorruptFile(rf_files[i], seed + i);
    }
  } else {
    EXPECT_TRUE(rf_files.empty());
  }
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  // Scans stay correct while degraded.
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t k : keys) ref[k] = ValueOf(k);
  SplitMix64 rng(seed + 1);
  for (int q = 0; q < 50; ++q) {
    const uint64_t lo = rng.NextBelow(uint64_t{1} << 40);
    const uint64_t hi = lo + rng.NextBelow(uint64_t{1} << 30);
    const auto got = db->Scan(lo, hi);
    std::vector<std::pair<uint64_t, uint64_t>> expect;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi;
         ++it) {
      expect.emplace_back(it->first, it->second);
    }
    ASSERT_EQ(got, expect);
  }
  // One flush later every run has a live range filter again.
  Populate(db.get(), static_cast<int>(o.memtable_entries), seed + 2);
  EXPECT_EQ(db->QuarantinedRuns(), 0u);
  EXPECT_GT(db->recovery().filters_rebuilt, 0u);
  std::filesystem::remove_all(o.dir);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LsmRangeRecovery,
    ::testing::Values(RangeFilterKind::kPrefixBloom, RangeFilterKind::kSurf,
                      RangeFilterKind::kRosetta, RangeFilterKind::kSnarf,
                      RangeFilterKind::kGrafite, RangeFilterKind::kMemento),
    [](const ::testing::TestParamInfo<RangeFilterKind>& info) {
      switch (info.param) {
        case RangeFilterKind::kNone: return "None";
        case RangeFilterKind::kPrefixBloom: return "PrefixBloom";
        case RangeFilterKind::kSurf: return "Surf";
        case RangeFilterKind::kRosetta: return "Rosetta";
        case RangeFilterKind::kSnarf: return "Snarf";
        case RangeFilterKind::kGrafite: return "Grafite";
        case RangeFilterKind::kMemento: return "Memento";
      }
      return "Unknown";
    });

TEST(LsmRecovery, CorruptCurrentFallsBackToManifestListing) {
  const uint64_t seed = TestSeed(0xC0DE);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.dir = FreshDir("current");
  std::vector<uint64_t> keys;
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    keys = Populate(db.get(), 1000, seed);
  }
  CorruptFile(o.dir + "/" + std::string(kCurrentFileName), seed);
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  EXPECT_GE(db->recovery().manifest_fallbacks, 1u);
  // The newest manifest is still on disk, so nothing is lost.
  for (uint64_t k : keys) {
    ASSERT_EQ(db->Get(k), std::optional<uint64_t>(ValueOf(k))) << k;
  }
  std::filesystem::remove_all(o.dir);
}

TEST(LsmRecovery, CorruptNewestManifestFallsBackWithoutWrongAnswers) {
  const uint64_t seed = TestSeed(0x3A17);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.dir = FreshDir("manifest");
  std::vector<uint64_t> keys;
  uint64_t newest_gen = 0;
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    keys = Populate(db.get(), 1200, seed);
    newest_gen = db->generation();
  }
  ASSERT_GT(newest_gen, 1u);  // Need a previous generation to fall to.
  CorruptFile(o.dir + "/" + ManifestFileName(newest_gen), seed);
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  EXPECT_GE(db->recovery().manifest_fallbacks, 1u);
  EXPECT_LT(db->generation(), newest_gen);
  // Falling back may lose the newest generation (an at-rest corruption,
  // not a crash), but it must NEVER invent or corrupt a value: keys are
  // insert-only with value = f(key), so every answer is f(key) or absent.
  size_t present = 0;
  for (uint64_t k : keys) {
    const auto got = db->Get(k);
    if (got.has_value()) {
      ASSERT_EQ(*got, ValueOf(k)) << k;
      ++present;
    }
  }
  EXPECT_GT(present, 0u);
  std::filesystem::remove_all(o.dir);
}

TEST(LsmRecovery, CorruptRunDataFallsBackOrFailsCleanly) {
  const uint64_t seed = TestSeed(0x2DA7);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.dir = FreshDir("rundata");
  std::vector<uint64_t> keys;
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    keys = Populate(db.get(), 1200, seed);
  }
  const auto data_files = FilesMatching(o.dir, ".data");
  ASSERT_FALSE(data_files.empty());
  for (size_t i = 0; i < data_files.size(); ++i) {
    CorruptFile(data_files[i], seed + i);
  }
  // Every run of every retained generation is now corrupt: recovery must
  // fail cleanly (nullptr), not serve garbage.
  auto db = LsmTree::Open(o);
  if (db != nullptr) {
    // Only acceptable if some generation's runs happened to survive the
    // bit flips' checksums — then answers must still be right-or-absent.
    for (uint64_t k : keys) {
      const auto got = db->Get(k);
      if (got.has_value()) {
        ASSERT_EQ(*got, ValueOf(k)) << k;
      }
    }
  }
  std::filesystem::remove_all(o.dir);
}

TEST(LsmRecovery, AllManifestsCorruptFailsCleanly) {
  const uint64_t seed = TestSeed(0xFA11);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.dir = FreshDir("allmanifests");
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    Populate(db.get(), 1000, seed);
  }
  size_t corrupted = 0;
  for (const std::string& name : RealEnv()->ListDir(o.dir)) {
    uint64_t gen;
    if (ParseManifestFileName(name, &gen)) {
      CorruptFile(o.dir + "/" + name, seed + corrupted++);
    }
  }
  ASSERT_GT(corrupted, 0u);
  EXPECT_EQ(LsmTree::Open(o), nullptr);
  std::filesystem::remove_all(o.dir);
}

// --- Manifest codec hardening ------------------------------------------------

TEST(LsmManifest, DecodeRejectsCorruptionBattery) {
  const uint64_t seed = TestSeed(0xDECD);
  BBF_ANNOUNCE_SEED(seed);
  ManifestData m;
  m.generation = 7;
  m.next_run_id = 12;
  m.levels.resize(2);
  m.levels[0].runs.push_back(RunManifest{5, 100, true, false});
  m.levels[1].runs.push_back(RunManifest{9, 400, true, true});
  const std::string payload = EncodeManifest(m);
  ManifestData round;
  ASSERT_TRUE(DecodeManifest(payload, &round));
  EXPECT_EQ(round.generation, 7u);
  EXPECT_EQ(round.levels[1].runs[0].id, 9u);
  EXPECT_TRUE(round.levels[1].runs[0].has_range_filter);

  // The payload itself is covered by the frame checksum in the file; the
  // decoder must still reject structural damage on its own (it also runs
  // on intact-but-foreign payloads).
  int rejected = 0;
  for (const auto& c : fault::GenericCorruptions(payload, seed)) {
    ManifestData out;
    if (!DecodeManifest(c.blob, &out)) ++rejected;
  }
  // Bit flips inside a value field can legitimately decode (the frame
  // checksum catches those); truncations and hostile counts must not.
  ManifestData out;
  EXPECT_FALSE(DecodeManifest(payload.substr(0, payload.size() - 3), &out));
  EXPECT_FALSE(DecodeManifest(payload + "x", &out));
  EXPECT_GT(rejected, 0);
}

// --- Observability -----------------------------------------------------------

TEST(LsmRecovery, LifecycleCountersAreScrapeable) {
  const uint64_t seed = TestSeed(0x0B5);
  BBF_ANNOUNCE_SEED(seed);
  LsmOptions o;
  o.memtable_entries = 128;
  o.dir = FreshDir("obs");
  {
    auto db = LsmTree::Open(o);
    ASSERT_NE(db, nullptr);
    Populate(db.get(), 1000, seed);
  }
  const auto pf_files = FilesMatching(o.dir, ".pf");
  ASSERT_FALSE(pf_files.empty());
  CorruptFile(pf_files[0], seed);
  auto db = LsmTree::Open(o);
  ASSERT_NE(db, nullptr);
  obs::MetricsRegistry registry;
  registry.Register("lsm", [&db] { return db->ObsSnapshot(); });
  const std::string prom = obs::RenderPrometheus(registry.Snapshot());
  EXPECT_NE(prom.find("bbf_lsm_filters_quarantined_total"), std::string::npos);
  EXPECT_NE(prom.find("bbf_lsm_generations_committed_total"),
            std::string::npos);
  EXPECT_NE(prom.find("bbf_lsm_quarantined_runs"), std::string::npos);
  const std::string json = obs::RenderJson(registry.Snapshot());
  EXPECT_NE(json.find("lsm_filters_quarantined_total"), std::string::npos);
  std::filesystem::remove_all(o.dir);
}

}  // namespace
}  // namespace bbf::lsm
