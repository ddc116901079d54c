// Fault-injection suite for the snapshot layer (DESIGN.md §8): replays
// every snapshot under bit flips, truncations at frame boundaries, torn
// writes, and hostile length fields, asserting Load always fails cleanly —
// no crash, no unbounded allocation, no false negatives afterwards — and
// that ShardedFilter quarantines corrupt shards instead of dying.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/lsm/run.h"
#include "core/factory.h"
#include "core/filter_io.h"
#include "core/key.h"
#include "core/sharded_filter.h"
#include "expandable/taffy_filter.h"
#include "fault_injection.h"
#include "legacy_frames.h"
#include "quotient/quotient_filter.h"
#include "quotient/rsqf.h"
#include "range/memento.h"
#include "staticf/ribbon_filter.h"
#include "staticf/xor_filter.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/serialize.h"

namespace bbf {
namespace {

std::vector<std::string_view> DynamicSnapshotTags() {
  std::vector<std::string_view> tags;
  for (std::string_view name : KnownFilterNames()) {
    // Factory names match frame tags except dleft.
    tags.push_back(name == "dleft" ? "dleft-counting" : name);
  }
  tags.push_back("spectral-bloom");
  return tags;
}

std::vector<uint64_t> InsertSome(Filter* f, uint64_t seed, int n) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> inserted;
  for (int i = 0; i < n; ++i) {
    const uint64_t key = rng.Next();
    if (f->Insert(key)) inserted.push_back(key);
  }
  return inserted;
}

std::string SaveToString(const Filter& f) {
  std::ostringstream ss;
  EXPECT_TRUE(f.Save(ss));
  return std::move(ss).str();
}

uint64_t ReadLittleU64(const std::string& blob, size_t offset) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(blob[offset + i]))
         << (8 * i);
  }
  return v;
}

// Byte offset one past the first frame in `blob` (where ShardedFilter's
// per-shard frames begin).
size_t FirstFrameEnd(const std::string& blob) {
  const uint64_t tag_len = ReadLittleU64(blob, 16);
  const size_t payload_len_off = 24 + static_cast<size_t>(tag_len);
  const uint64_t payload_len = ReadLittleU64(blob, payload_len_off);
  return payload_len_off + 16 + static_cast<size_t>(payload_len);
}

TEST(FaultInjection, EveryFamilyRejectsCorruptSnapshotsCleanly) {
  uint64_t tag_index = 0;
  for (std::string_view tag : DynamicSnapshotTags()) {
    SCOPED_TRACE(std::string(tag));
    std::unique_ptr<Filter> f = CreateFilterForTag(tag, 4000);
    ASSERT_NE(f, nullptr);
    const std::vector<uint64_t> keys = InsertSome(f.get(), 77 + tag_index, 1500);
    ASSERT_FALSE(keys.empty());
    const std::string blob = SaveToString(*f);
    ASSERT_FALSE(blob.empty());

    const auto corruptions = fault::AllCorruptions(blob, 0x5EED + tag_index);
    const auto accepted = fault::ReplayExpectingRejection(
        corruptions, [&f](const std::string& b) {
          std::istringstream is(b);
          return f->Load(is);
        });
    EXPECT_TRUE(accepted.empty())
        << accepted.size() << " corruptions accepted, first: "
        << (accepted.empty() ? "" : accepted.front());

    // A rejected load must leave the filter untouched: every key inserted
    // before the fault barrage is still present (no false negatives).
    EXPECT_EQ(f->NumKeys(), keys.size());
    for (uint64_t key : keys) ASSERT_TRUE(f->Contains(key)) << key;
    ++tag_index;
  }
}

TEST(FaultInjection, StaticFamiliesRejectCorruptSnapshots) {
  SplitMix64 rng(0xABC);
  std::vector<uint64_t> keys(1000);
  for (uint64_t& k : keys) k = rng.Next();

  const XorFilter xf(keys, 12);
  const RibbonFilter rf(keys, 12);
  const Filter* filters[] = {&xf, &rf};
  for (const Filter* f : filters) {
    SCOPED_TRACE(std::string(f->Name()));
    const std::string blob = SaveToString(*f);
    const auto accepted = fault::ReplayExpectingRejection(
        fault::AllCorruptions(blob, 0x17), [&](const std::string& b) {
          std::istringstream is(b);
          return LoadFilterSnapshot(is) != nullptr;
        });
    EXPECT_TRUE(accepted.empty())
        << accepted.size() << " corruptions accepted, first: "
        << (accepted.empty() ? "" : accepted.front());
  }
}

// The Memento frame rides two loader paths: Filter::Load on a live
// instance (already in the every-family barrage above via the registry)
// and the LSM's range-filter resurrection, which instantiates from the
// frame tag alone. Both must reject every corruption of a real snapshot —
// bit flips, truncations at each frame boundary, torn writes, hostile
// length fields — and a rejected load must leave a live filter's range
// answers intact.
TEST(FaultInjection, MementoRangeLoaderRejectsCorruptSnapshots) {
  SplitMix64 rng(0xDEF);
  std::vector<uint64_t> keys(2000);
  for (uint64_t& k : keys) k = rng.Next();
  MementoFilter f = MementoFilter::ForCapacity(keys.size(), 0.01);
  for (uint64_t k : keys) ASSERT_TRUE(f.AddKey(k));
  std::ostringstream ss;
  ASSERT_TRUE(f.Save(ss));
  const std::string blob = std::move(ss).str();

  const auto corruptions = fault::AllCorruptions(blob, 0x5EED);
  const auto accepted_direct = fault::ReplayExpectingRejection(
      corruptions, [&f](const std::string& b) {
        std::istringstream is(b);
        return f.Load(is);
      });
  EXPECT_TRUE(accepted_direct.empty())
      << accepted_direct.size() << " corruptions accepted by Load, first: "
      << (accepted_direct.empty() ? "" : accepted_direct.front());

  const auto accepted_lsm = fault::ReplayExpectingRejection(
      corruptions, [](const std::string& b) {
        std::istringstream is(b);
        return lsm::LoadRangeFilterSnapshot(is) != nullptr;
      });
  EXPECT_TRUE(accepted_lsm.empty())
      << accepted_lsm.size()
      << " corruptions accepted by the LSM range loader, first: "
      << (accepted_lsm.empty() ? "" : accepted_lsm.front());

  // The barrage of rejected loads must not have disturbed the original.
  EXPECT_EQ(f.NumKeys(), keys.size());
  for (uint64_t k : keys) ASSERT_TRUE(f.MayContainRange(k, k)) << k;

  // Sanity: the clean blob still loads through the LSM path.
  std::istringstream is(blob);
  auto reloaded = lsm::LoadRangeFilterSnapshot(is);
  ASSERT_NE(reloaded, nullptr);
  for (uint64_t k : keys) ASSERT_TRUE(reloaded->MayContainRange(k, k)) << k;
}

// Hostile RsqfTable bodies (DESIGN.md §8 rule 3). The frame checksum is a
// public fold, so a peer can hand over a well-framed payload whose
// metadata lies; LoadBody must recompute what the lookups trust. Each
// case patches one field of a real single-key payload — `header` is the
// family's bytes before the table body — and must be rejected.
void ExpectRsqfBodyForgeriesRejected(Filter* f, size_t header) {
  std::ostringstream ss;
  ASSERT_TRUE(f->SavePayload(ss));
  const std::string payload = std::move(ss).str();
  int32_t q = 0;
  for (int i = 0; i < 4; ++i) {
    q |= static_cast<int32_t>(static_cast<uint8_t>(payload[i])) << (8 * i);
  }
  const size_t words = ((size_t{1} << q) + 2 * RsqfTable::kBlockSlots) / 64;
  const size_t occupieds_at = header + 8;
  const size_t runends_at = occupieds_at + 8 * words + 8;
  const size_t offsets_at = payload.size() - 8 * (words + 1);
  auto patch = [](std::string blob, size_t at, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      blob[at + i] = static_cast<char>(v >> (8 * i));
    }
    return blob;
  };
  // The one occupied quotient, which sits alone in its home slot.
  uint64_t home = 0;
  for (size_t w = 0; w < words; ++w) {
    const uint64_t word = ReadLittleU64(payload, occupieds_at + 8 * w);
    if (word != 0) home = w * 64 + CountTrailingZeros(word);
  }
  ASSERT_GT(home, 0u);
  ASSERT_EQ(ReadLittleU64(payload, runends_at + 8 * (home / 64)),
            uint64_t{1} << (home % 64));
  struct Forgery {
    const char* what;
    std::string payload;
  };
  const uint64_t last_word = words - 1;
  const Forgery forgeries[] = {
      {"an extra runend: counts disagree",
       patch(payload, runends_at + 8 * last_word,
             ReadLittleU64(payload, runends_at + 8 * last_word) |
                 (uint64_t{1} << 63))},
      {"every occupied bit set",
       [&] {
         std::string b = payload;
         for (size_t w = 0; w < words; ++w) {
           b = patch(b, occupieds_at + 8 * w, ~uint64_t{0});
         }
         return b;
       }()},
      {"the runend moved before its quotient",
       patch(patch(payload, runends_at + 8 * (home / 64), 0),
             runends_at + 8 * ((home - 1) / 64),
             uint64_t{1} << ((home - 1) % 64))},
      {"a stale offset that stays in range",
       patch(payload, offsets_at + 8 * 1, 1)},
  };
  const uint64_t keys = f->NumKeys();
  for (const Forgery& forgery : forgeries) {
    SCOPED_TRACE(forgery.what);
    ASSERT_EQ(forgery.payload.size(), payload.size());
    std::istringstream is(forgery.payload);
    EXPECT_FALSE(f->LoadPayload(is));
    EXPECT_EQ(f->NumKeys(), keys);
  }
  // The unpatched payload still loads.
  std::istringstream is(payload);
  EXPECT_TRUE(f->LoadPayload(is));
}

TEST(FaultInjection, RsqfLoaderRejectsInconsistentMetadata) {
  Rsqf f(8, 8);
  ASSERT_TRUE(f.Insert(uint64_t{42}));
  ExpectRsqfBodyForgeriesRejected(&f, /*header=*/24);
  EXPECT_TRUE(f.Contains(uint64_t{42}));
}

// A consistent body under r = 64: the split's shift by r would be
// undefined on the first probe, so the loader rejects the frame and the
// live filter keeps its state.
TEST(FaultInjection, RsqfLoaderRejectsFullWidthRemainder) {
  Rsqf f(8, 8);
  ASSERT_TRUE(f.Insert(uint64_t{42}));
  std::ostringstream before;
  ASSERT_TRUE(f.Save(before));
  std::ostringstream payload;
  WriteI32(payload, 8);
  WriteI32(payload, 64);
  WriteU64(payload, 0x45F);
  WriteU64(payload, 0);
  ASSERT_TRUE(RsqfTable(8, 64).SaveBody(payload));
  std::ostringstream frame;
  ASSERT_TRUE(WriteSnapshotFrame(frame, "rsqf", payload.str()));
  std::istringstream is(frame.str());
  EXPECT_FALSE(f.Load(is));
  std::istringstream tagged(frame.str());
  EXPECT_EQ(LoadFilterSnapshot(tagged), nullptr);
  std::ostringstream after;
  ASSERT_TRUE(f.Save(after));
  EXPECT_EQ(after.str(), before.str());
  EXPECT_TRUE(f.Contains(uint64_t{42}));
}

TEST(FaultInjection, MementoLoaderRejectsInconsistentMetadata) {
  MementoFilter f(8, 8, 8);
  ASSERT_TRUE(f.AddKey(uint64_t{42} << 20));
  ExpectRsqfBodyForgeriesRejected(&f, /*header=*/36);
  EXPECT_TRUE(f.MayContainRange(uint64_t{42} << 20, uint64_t{42} << 20));
}

// Frames written before the quotient families moved onto RsqfTable carry
// the same tags over the old slot layout. Their payloads fail the layout
// marker: Load rejects them and the live filter keeps its keys.
TEST(FaultInjection, OldLayoutQuotientFramesAreRejected) {
  QuotientFilter qf(6, 4);
  TaffyFilter taffy(6, 8);
  Filter* filters[] = {&qf, &taffy};
  const std::string frames[] = {legacy::QuotientFrame(),
                                legacy::TaffyFrame()};
  for (int i = 0; i < 2; ++i) {
    Filter* f = filters[i];
    SCOPED_TRACE(std::string(f->Name()));
    const std::vector<uint64_t> keys = InsertSome(f, 500 + i, 20);
    ASSERT_EQ(keys.size(), 20u);
    std::istringstream is(frames[i]);
    EXPECT_FALSE(f->Load(is));
    std::istringstream tagged(frames[i]);
    EXPECT_EQ(LoadFilterSnapshot(tagged), nullptr);
    EXPECT_EQ(f->NumKeys(), keys.size());
    for (uint64_t key : keys) ASSERT_TRUE(f->Contains(key)) << key;
  }
}

TEST(FaultInjection, GarbageAndEmptyStreamsAreRejected) {
  for (const std::string& junk :
       {std::string(), std::string("hello world"),
        std::string(1000, '\0'), std::string(64, '\xFF')}) {
    std::istringstream is(junk);
    EXPECT_EQ(LoadFilterSnapshot(is), nullptr);
    std::istringstream is2(junk);
    auto bloom = CreateFilterForTag("bloom", 100);
    EXPECT_FALSE(bloom->Load(is2));
  }
}

TEST(FaultInjection, HostileLengthFieldsDontAllocate) {
  // A frame whose payload_len claims 2^62 bytes: the loader must fail
  // from the actual stream contents, not trust the field. Running under
  // ASan, an eager allocation would abort the test.
  std::ostringstream ss;
  WriteU64(ss, kSnapshotMagic);
  WriteU64(ss, kSnapshotVersion);
  WriteU64(ss, 5);
  ss.write("bloom", 5);
  WriteU64(ss, uint64_t{1} << 62);  // Hostile payload length.
  WriteU64(ss, 0);                  // Bogus checksum.
  ss.write("xy", 2);                // Far less payload than claimed.
  const std::string blob = std::move(ss).str();
  std::istringstream is(blob);
  EXPECT_EQ(LoadFilterSnapshot(is), nullptr);
}

TEST(FaultInjection, WrongFamilyTagIsRejected) {
  auto bloom = CreateFilterForTag("bloom", 500);
  InsertSome(bloom.get(), 1, 100);
  const std::string blob = SaveToString(*bloom);
  auto cuckoo = CreateFilterForTag("cuckoo", 500);
  std::istringstream is(blob);
  EXPECT_FALSE(cuckoo->Load(is));
}

class ShardedFaultTest : public ::testing::Test {
 protected:
  static std::unique_ptr<ShardedFilter> MakeSharded() {
    return std::make_unique<ShardedFilter>(
        4000, kShards,
        [](uint64_t cap) { return CreateFilter("bloom", cap, 0.01); });
  }

  static size_t ShardOf(uint64_t key) {
    // Mirrors ShardedFilter's routing: the canonical mix, not a re-hash.
    return static_cast<size_t>(HashedKey(key).value() % kShards);
  }

  static constexpr int kShards = 4;
};

TEST_F(ShardedFaultTest, CorruptShardIsQuarantinedOthersLoad) {
  auto original = MakeSharded();
  const std::vector<uint64_t> keys = InsertSome(original.get(), 9, 2000);
  std::string blob = SaveToString(*original);

  // Flip a bit inside the first per-shard frame (just past the outer
  // directory frame).
  const size_t shard0_start = FirstFrameEnd(blob);
  ASSERT_LT(shard0_start + 40, blob.size());
  blob[shard0_start + 40] ^= 0x10;

  auto reloaded = MakeSharded();
  ShardedFilter::LoadReport report;
  std::istringstream is(blob);
  ASSERT_TRUE(reloaded->LoadWithReport(is, &report));
  EXPECT_EQ(report.total_shards, static_cast<size_t>(kShards));
  EXPECT_EQ(report.healthy_shards, static_cast<size_t>(kShards - 1));
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 0u);

  // Healthy shards answer exactly as before; the quarantined shard was
  // rebuilt empty, so its keys are gone but nothing crashes or lies.
  for (uint64_t key : keys) {
    if (ShardOf(key) != 0) {
      EXPECT_TRUE(reloaded->Contains(key)) << key;
    }
  }
  EXPECT_LT(reloaded->NumKeys(), keys.size());
}

TEST_F(ShardedFaultTest, TruncationMidShardQuarantinesTail) {
  auto original = MakeSharded();
  const std::vector<uint64_t> keys = InsertSome(original.get(), 10, 2000);
  const std::string blob = SaveToString(*original);
  const size_t shards_start = FirstFrameEnd(blob);
  // Cut halfway through the shard frames: a prefix of shards survives,
  // the rest quarantine.
  const std::string cut =
      blob.substr(0, shards_start + (blob.size() - shards_start) / 2);

  auto reloaded = MakeSharded();
  ShardedFilter::LoadReport report;
  std::istringstream is(cut);
  ASSERT_TRUE(reloaded->LoadWithReport(is, &report));
  EXPECT_EQ(report.total_shards, static_cast<size_t>(kShards));
  EXPECT_FALSE(report.quarantined.empty());
  EXPECT_LT(report.healthy_shards, static_cast<size_t>(kShards));
  for (uint64_t key : keys) {
    bool healthy = true;
    for (size_t q : report.quarantined) healthy &= ShardOf(key) != q;
    if (healthy) {
      EXPECT_TRUE(reloaded->Contains(key)) << key;
    }
  }
}

TEST_F(ShardedFaultTest, CorruptDirectoryFailsWholeLoadAndPreservesState) {
  auto original = MakeSharded();
  InsertSome(original.get(), 11, 1000);
  std::string blob = SaveToString(*original);
  blob[30] ^= 0x01;  // Inside the outer directory frame header/payload.

  auto target = MakeSharded();
  const std::vector<uint64_t> target_keys = InsertSome(target.get(), 12, 500);
  ShardedFilter::LoadReport report;
  std::istringstream is(blob);
  EXPECT_FALSE(target->LoadWithReport(is, &report));
  // Failed directory load leaves the target exactly as it was.
  EXPECT_EQ(target->NumKeys(), target_keys.size());
  for (uint64_t key : target_keys) EXPECT_TRUE(target->Contains(key));
}

TEST_F(ShardedFaultTest, RoundTripsThroughFilterIo) {
  auto original = MakeSharded();
  const std::vector<uint64_t> keys = InsertSome(original.get(), 13, 2000);
  const std::string blob = SaveToString(*original);
  std::istringstream is(blob);
  std::unique_ptr<Filter> reloaded = LoadFilterSnapshot(is);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(reloaded->Name(), "sharded");
  EXPECT_EQ(reloaded->NumKeys(), keys.size());
  for (uint64_t key : keys) EXPECT_TRUE(reloaded->Contains(key));
}

}  // namespace
}  // namespace bbf
