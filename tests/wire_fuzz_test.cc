// Corpus-driven fuzzing of the wire codec (DESIGN.md §14): every framed
// byte the server will ever parse goes through CutFrame and the payload
// decoders, so those functions are hammered here with the generalized
// fault corpus (tests/fault_injection.h FrameSpec) plus raw random bytes
// — no crashes, no hostile-length allocations, and incremental feeding
// must agree byte-for-byte with one-shot parsing. A live-server replay
// at the end proves the loop survives the same corpus over a socket.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/net/client.h"
#include "apps/net/server.h"
#include "apps/net/wire.h"
#include "core/sharded_filter.h"
#include "fault_injection.h"
#include "quotient/quotient_filter.h"
#include "test_seed.h"
#include "util/random.h"

namespace bbf::net {
namespace {

fault::FrameSpec WireSpec() {
  fault::FrameSpec spec;
  spec.field_boundaries.assign(std::begin(kWireFieldBoundaries),
                               std::end(kWireFieldBoundaries));
  spec.length_field_offsets = {kWireCountOffset, kWireLenOffset};
  spec.checksum_offset = kWireChecksumOffset;
  return spec;
}

std::vector<std::string> SeedFrames(uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<uint64_t> keys(257);
  for (auto& k : keys) k = rng.Next();
  std::vector<std::string> strings = {"a", std::string(300, 'x'), "",
                                      "bbf.example/path?q=1"};
  return {
      EncodeFrame(Opcode::kPing, FrameStatus::kOk, 0, 1, ""),
      EncodeFrame(Opcode::kLookup, FrameStatus::kOk,
                  static_cast<uint32_t>(keys.size()), 2,
                  EncodeKeysPayload(keys)),
      EncodeFrame(Opcode::kInsert, FrameStatus::kOk, 1, 3,
                  EncodeKeysPayload(std::vector<uint64_t>{42})),
      EncodeFrame(Opcode::kBlockCheck, FrameStatus::kOk,
                  static_cast<uint32_t>(strings.size()), 4,
                  EncodeStringsPayload(strings)),
      EncodeFrame(Opcode::kMetrics, FrameStatus::kOk, 0, 5, ""),
  };
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<uint8_t>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 15]);
  }
  return out;
}

// A fixed lookup request and its response, byte for byte. The expected
// hex was written down from the byte-at-a-time codec, so any rewrite of
// the encoder has to reproduce the same stream: the header fields in
// little-endian order, and both checksums.
const std::vector<uint64_t> kGoldenKeys = {1, 0x0123456789ABCDEFULL,
                                           ~uint64_t{0}};
constexpr uint64_t kGoldenSeq = 0x1122334455667788ULL;
constexpr char kGoldenAnswers[] = {1, 0, 1};
constexpr char kGoldenRequestHex[] =
    "4242465749524531"   // magic "BBFWIRE1"
    "01020000"           // version 1, kLookup, kOk, flags 0
    "03000000"           // count 3
    "8877665544332211"   // seq
    "1800000000000000"   // payload_len 24
    "3b873cf787a679f6"   // checksum
    "0100000000000000"   // keys
    "efcdab8967452301"
    "ffffffffffffffff";
constexpr char kGoldenResponseHex[] =
    "4242465749524531"
    "01020000"
    "03000000"
    "8877665544332211"
    "0300000000000000"   // payload_len 3
    "ac7dbe3c6ef4c2ea"
    "010001";            // present, absent, present

TEST(WireGolden, LookupRequestAndResponseBytesArePinned) {
  const std::string request =
      EncodeFrame(Opcode::kLookup, FrameStatus::kOk,
                  static_cast<uint32_t>(kGoldenKeys.size()), kGoldenSeq,
                  EncodeKeysPayload(kGoldenKeys));
  const std::string response = EncodeFrame(
      Opcode::kLookup, FrameStatus::kOk,
      static_cast<uint32_t>(std::size(kGoldenAnswers)), kGoldenSeq,
      std::string_view(kGoldenAnswers, std::size(kGoldenAnswers)));
  EXPECT_EQ(Hex(request), kGoldenRequestHex);
  EXPECT_EQ(Hex(response), kGoldenResponseHex);

  FrameHeader h;
  std::string_view payload;
  size_t consumed = 0;
  ASSERT_EQ(CutFrame(request, &h, &payload, &consumed), CutResult::kFrame);
  EXPECT_EQ(consumed, request.size());
  EXPECT_EQ(h.opcode, static_cast<uint8_t>(Opcode::kLookup));
  EXPECT_EQ(h.count, kGoldenKeys.size());
  EXPECT_EQ(h.seq, kGoldenSeq);
  std::vector<uint64_t> keys;
  ASSERT_TRUE(DecodeKeysPayload(h, payload, &keys));
  EXPECT_EQ(keys, kGoldenKeys);

  ASSERT_EQ(CutFrame(response, &h, &payload, &consumed), CutResult::kFrame);
  EXPECT_EQ(consumed, response.size());
  EXPECT_EQ(h.status, static_cast<uint8_t>(FrameStatus::kOk));
  EXPECT_EQ(h.count, std::size(kGoldenAnswers));
  EXPECT_EQ(h.seq, kGoldenSeq);
  EXPECT_EQ(payload, std::string_view(kGoldenAnswers,
                                      std::size(kGoldenAnswers)));
}

TEST(WireGolden, LiveServerAnswersTheGoldenRequestWithTheGoldenResponse) {
  ShardedFilter filter(1 << 16, 4, [](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, 0.01));
  });
  ASSERT_TRUE(filter.Insert(kGoldenKeys[0]));
  ASSERT_TRUE(filter.Insert(kGoldenKeys[2]));
  ASSERT_FALSE(filter.Contains(kGoldenKeys[1]));
  Server server(&filter);
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  const int fd = SyncClient::ConnectTcp(server.port());
  ASSERT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const std::string request =
      EncodeFrame(Opcode::kLookup, FrameStatus::kOk,
                  static_cast<uint32_t>(kGoldenKeys.size()), kGoldenSeq,
                  EncodeKeysPayload(kGoldenKeys));
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string stream;
  char chunk[256];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    stream.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(Hex(stream), kGoldenResponseHex);
  server.Shutdown();
}

/// CutFrame's structural invariants, whatever the input: consumed stays
/// inside the buffer, exposed payloads stay inside the buffer and under
/// the cap, and the classification is internally consistent.
void CheckCutInvariants(const std::string& blob) {
  std::string_view rest(blob);
  int frames = 0;
  while (true) {
    FrameHeader h;
    std::string_view payload;
    size_t consumed = 0;
    const CutResult res = CutFrame(rest, &h, &payload, &consumed);
    if (res == CutResult::kNeedMore || res == CutResult::kMalformed) break;
    ASSERT_EQ(res, CutResult::kFrame);
    ASSERT_LE(consumed, rest.size());
    ASSERT_GE(consumed, kWireHeaderBytes);
    ASSERT_LE(h.payload_len, kMaxWirePayloadBytes);
    ASSERT_EQ(payload.size(), h.payload_len);
    ASSERT_GE(payload.data(), rest.data());
    ASSERT_LE(payload.data() + payload.size(), rest.data() + rest.size());
    rest.remove_prefix(consumed);
    ASSERT_LT(++frames, 1000);
  }
}

TEST(WireFuzz, CorpusNeverBreaksCutFrameInvariants) {
  const uint64_t seed = TestSeed(910);
  BBF_ANNOUNCE_SEED(seed);
  const auto spec = WireSpec();
  size_t total = 0;
  for (const auto& frame : SeedFrames(seed)) {
    for (const auto& c : fault::FrameCorpus(frame, spec, seed)) {
      SCOPED_TRACE("corruption: " + c.name);
      CheckCutInvariants(c.blob);
      ++total;
    }
  }
  EXPECT_GT(total, 500u);
}

TEST(WireFuzz, RandomBytesNeverBreakCutFrameInvariants) {
  const uint64_t seed = TestSeed(911);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);
  for (int i = 0; i < 256; ++i) {
    std::string blob(rng.NextBelow(300), '\0');
    for (auto& b : blob) b = static_cast<char>(rng.Next());
    // Half the time, plant a real magic so parsing goes deeper.
    if (i % 2 == 0 && blob.size() >= 8) {
      for (int j = 0; j < 8; ++j) {
        blob[j] = static_cast<char>((kWireMagic >> (8 * j)) & 0xFF);
      }
    }
    CheckCutInvariants(blob);
  }
}

TEST(WireFuzz, IncrementalFeedAgreesWithOneShotParse) {
  const uint64_t seed = TestSeed(912);
  BBF_ANNOUNCE_SEED(seed);
  const auto spec = WireSpec();
  for (const auto& frame : SeedFrames(seed)) {
    auto corpus = fault::FrameCorpus(frame, spec, seed);
    corpus.push_back(fault::Corruption{"pristine", frame});
    for (const auto& c : corpus) {
      SCOPED_TRACE("corruption: " + c.name);
      FrameHeader h;
      std::string_view payload;
      size_t consumed = 0;
      const CutResult oneshot = CutFrame(c.blob, &h, &payload, &consumed);

      // Byte-at-a-time: the verdict must never regress (kNeedMore may
      // become terminal, a terminal verdict is final) and must land on
      // the one-shot answer — the server's incremental loop depends on
      // this equivalence.
      CutResult verdict = CutResult::kNeedMore;
      for (size_t n = 0; n <= c.blob.size(); ++n) {
        FrameHeader ih;
        std::string_view ipayload;
        size_t iconsumed = 0;
        const CutResult step = CutFrame(std::string_view(c.blob).substr(0, n),
                                        &ih, &ipayload, &iconsumed);
        if (verdict != CutResult::kNeedMore) {
          ASSERT_EQ(step, verdict) << "verdict flapped at byte " << n;
        }
        verdict = step;
      }
      ASSERT_EQ(verdict, oneshot);
    }
  }
}

TEST(WireFuzz, HostileLengthsRejectOnHeaderAlone) {
  // 40 header bytes claiming huge payloads: the codec must return
  // kMalformed immediately — kNeedMore would have the server buffering
  // toward a phantom terabyte.
  for (uint64_t bomb :
       {kMaxWirePayloadBytes + 1, uint64_t{1} << 32, uint64_t{1} << 62,
        ~uint64_t{0}}) {
    std::string header =
        EncodeFrame(Opcode::kPing, FrameStatus::kOk, 0, 1, "");
    for (int i = 0; i < 8; ++i) {
      header[kWireLenOffset + i] = static_cast<char>((bomb >> (8 * i)) & 0xFF);
    }
    FrameHeader h;
    std::string_view payload;
    size_t consumed = 0;
    EXPECT_EQ(CutFrame(header, &h, &payload, &consumed),
              CutResult::kMalformed)
        << "payload_len " << bomb << " was not rejected on sight";
  }
  // Hostile count with a plausible payload_len: same instant rejection.
  std::string header = EncodeFrame(Opcode::kLookup, FrameStatus::kOk, 0, 1, "");
  const uint32_t count_bomb = kMaxWireBatchCount + 1;
  for (int i = 0; i < 4; ++i) {
    header[kWireCountOffset + i] =
        static_cast<char>((count_bomb >> (8 * i)) & 0xFF);
  }
  FrameHeader h;
  std::string_view payload;
  size_t consumed = 0;
  EXPECT_EQ(CutFrame(header, &h, &payload, &consumed), CutResult::kMalformed);
}

TEST(WireFuzz, PayloadDecodersRejectEveryMismatchWithoutCrashing) {
  const uint64_t seed = TestSeed(913);
  BBF_ANNOUNCE_SEED(seed);
  SplitMix64 rng(seed);

  // Valid round trips first: the decoders must accept their encoders.
  std::vector<uint64_t> keys(100);
  for (auto& k : keys) k = rng.Next();
  FrameHeader h;
  h.count = 100;
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(DecodeKeysPayload(h, EncodeKeysPayload(keys), &decoded));
  EXPECT_EQ(decoded, keys);

  std::vector<std::string> strings = {"", "abc", std::string(1000, 'q')};
  FrameHeader hs;
  hs.count = 3;
  std::vector<std::string_view> sdecoded;
  const std::string spayload = EncodeStringsPayload(strings);
  ASSERT_TRUE(DecodeStringsPayload(hs, spayload, &sdecoded));
  ASSERT_EQ(sdecoded.size(), 3u);
  EXPECT_EQ(sdecoded[2], strings[2]);

  // Then fuzz: random counts against random payloads. Acceptance is only
  // legal when the layout truly matches.
  for (int i = 0; i < 512; ++i) {
    std::string payload(rng.NextBelow(200), '\0');
    for (auto& b : payload) b = static_cast<char>(rng.Next());
    FrameHeader fh;
    fh.count = static_cast<uint32_t>(rng.NextBelow(80));
    fh.payload_len = payload.size();
    std::vector<uint64_t> k2;
    if (DecodeKeysPayload(fh, payload, &k2)) {
      ASSERT_EQ(payload.size(), static_cast<size_t>(fh.count) * 8);
      ASSERT_EQ(k2.size(), fh.count);
    }
    std::vector<std::string_view> s2;
    if (DecodeStringsPayload(fh, payload, &s2)) {
      size_t total = 0;
      for (const auto& s : s2) total += 4 + s.size();
      ASSERT_EQ(total, payload.size());  // No trailing bytes slipped by.
    }
  }
}

TEST(WireFuzz, LiveServerSurvivesWholeCorpusAndStaysResponsive) {
  const uint64_t seed = TestSeed(914);
  BBF_ANNOUNCE_SEED(seed);
  ShardedFilter filter(1 << 16, 4, [](uint64_t cap) -> std::unique_ptr<Filter> {
    return std::make_unique<QuotientFilter>(
        QuotientFilter::ForCapacity(cap, 0.01));
  });
  Server server(&filter);
  ASSERT_TRUE(server.Listen(0));
  ASSERT_TRUE(server.Start());

  const auto spec = WireSpec();
  size_t replayed = 0;
  for (const auto& frame : SeedFrames(seed)) {
    for (const auto& c : fault::FrameCorpus(frame, spec, seed)) {
      const int fd = SyncClient::ConnectTcp(server.port());
      ASSERT_GE(fd, 0);
      timeval tv{};
      tv.tv_sec = 5;
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      size_t off = 0;
      while (off < c.blob.size()) {
        const ssize_t n = ::send(fd, c.blob.data() + off,
                                 c.blob.size() - off, MSG_NOSIGNAL);
        if (n <= 0) break;  // Server already slammed the door: fine.
        off += static_cast<size_t>(n);
      }
      ::shutdown(fd, SHUT_WR);
      char sink[4096];
      while (::recv(fd, sink, sizeof(sink), 0) > 0) {
      }
      ::close(fd);
      if (++replayed % 64 == 0) {
        SyncClient probe(SyncClient::ConnectTcp(server.port()));
        ASSERT_EQ(probe.Ping(), FrameStatus::kOk)
            << "server unresponsive after " << replayed << " corruptions"
            << " (last: " << c.name << ")";
      }
    }
  }
  EXPECT_GT(replayed, 500u);
  SyncClient probe(SyncClient::ConnectTcp(server.port()));
  EXPECT_EQ(probe.Ping(), FrameStatus::kOk);
  server.Shutdown();
}

}  // namespace
}  // namespace bbf::net
