#include "apps/net/wire.h"

#include <bit>
#include <cstring>

#include "util/hash.h"

namespace bbf::net {

// The wire is little-endian and every integer on it is a plain word copy.
// HashBytes, which computes the frame checksum, reads native-endian words
// too, so a big-endian host would need both made endian-neutral together.
static_assert(std::endian::native == std::endian::little,
              "the wire codec and HashBytes assume a little-endian host");

std::string EncodeFrame(Opcode opcode, FrameStatus status, uint32_t count,
                        uint64_t seq, std::string_view payload) {
  char header[kWireHeaderBytes];
  const uint64_t checksum =
      HashBytes(payload.data(), payload.size(), kWireChecksumSeed);
  const uint64_t payload_len = payload.size();
  std::memcpy(header + kWireMagicOffset, &kWireMagic, sizeof(kWireMagic));
  header[kWireVersionOffset] = static_cast<char>(kWireVersion);
  header[kWireOpcodeOffset] = static_cast<char>(opcode);
  header[kWireStatusOffset] = static_cast<char>(status);
  header[kWireFlagsOffset] = '\0';
  std::memcpy(header + kWireCountOffset, &count, sizeof(count));
  std::memcpy(header + kWireSeqOffset, &seq, sizeof(seq));
  std::memcpy(header + kWireLenOffset, &payload_len, sizeof(payload_len));
  std::memcpy(header + kWireChecksumOffset, &checksum, sizeof(checksum));
  std::string out;
  out.reserve(kWireHeaderBytes + payload.size());
  out.append(header, kWireHeaderBytes);
  out.append(payload);
  return out;
}

FrameHeader PeekHeader(std::string_view buf) {
  FrameHeader h;
  const char* p = buf.data();
  std::memcpy(&h.magic, p + kWireMagicOffset, sizeof(h.magic));
  h.version = static_cast<uint8_t>(p[kWireVersionOffset]);
  h.opcode = static_cast<uint8_t>(p[kWireOpcodeOffset]);
  h.status = static_cast<uint8_t>(p[kWireStatusOffset]);
  h.flags = static_cast<uint8_t>(p[kWireFlagsOffset]);
  std::memcpy(&h.count, p + kWireCountOffset, sizeof(h.count));
  std::memcpy(&h.seq, p + kWireSeqOffset, sizeof(h.seq));
  std::memcpy(&h.payload_len, p + kWireLenOffset, sizeof(h.payload_len));
  std::memcpy(&h.checksum, p + kWireChecksumOffset, sizeof(h.checksum));
  return h;
}

HeaderCheck CheckHeader(const FrameHeader& h) {
  if (h.magic != kWireMagic) return HeaderCheck::kBadMagic;
  if (h.version != kWireVersion) return HeaderCheck::kBadVersion;
  if (h.flags != 0) return HeaderCheck::kBadFlags;
  if (h.opcode < static_cast<uint8_t>(Opcode::kPing) ||
      h.opcode > static_cast<uint8_t>(Opcode::kTunerCtl)) {
    return HeaderCheck::kBadOpcode;
  }
  if (h.payload_len > kMaxWirePayloadBytes || h.count > kMaxWireBatchCount) {
    return HeaderCheck::kHostileLength;
  }
  return HeaderCheck::kOk;
}

CutResult CutFrame(std::string_view buf, FrameHeader* header,
                   std::string_view* payload, size_t* consumed) {
  if (buf.size() < kWireHeaderBytes) return CutResult::kNeedMore;
  const FrameHeader h = PeekHeader(buf);
  // Header validation runs the instant 40 bytes exist — BEFORE the
  // payload is awaited, so a hostile payload_len can never make the
  // receiver sit on (or allocate toward) gigabytes it will reject anyway.
  if (CheckHeader(h) != HeaderCheck::kOk) return CutResult::kMalformed;
  const size_t total = kWireHeaderBytes + static_cast<size_t>(h.payload_len);
  if (buf.size() < total) return CutResult::kNeedMore;
  const std::string_view body =
      buf.substr(kWireHeaderBytes, static_cast<size_t>(h.payload_len));
  if (HashBytes(body.data(), body.size(), kWireChecksumSeed) != h.checksum) {
    return CutResult::kMalformed;
  }
  *header = h;
  *payload = body;
  *consumed = total;
  return CutResult::kFrame;
}

std::string EncodeKeysPayload(std::span<const uint64_t> keys) {
  return std::string(reinterpret_cast<const char*>(keys.data()),
                     keys.size() * 8);
}

bool DecodeKeysPayload(const FrameHeader& h, std::string_view payload,
                       std::vector<uint64_t>* keys) {
  if (h.count > kMaxWireBatchCount) return false;
  if (payload.size() != static_cast<size_t>(h.count) * 8) return false;
  keys->resize(h.count);
  if (h.count > 0) std::memcpy(keys->data(), payload.data(), payload.size());
  return true;
}

std::string EncodeStringsPayload(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& s : items) {
    const uint32_t len = static_cast<uint32_t>(s.size());
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    out.append(s);
  }
  return out;
}

bool DecodeStringsPayload(const FrameHeader& h, std::string_view payload,
                          std::vector<std::string_view>* items) {
  if (h.count > kMaxWireBatchCount) return false;
  std::vector<std::string_view> local;
  local.reserve(h.count);
  size_t off = 0;
  for (uint32_t i = 0; i < h.count; ++i) {
    if (payload.size() - off < 4) return false;
    uint32_t len;
    std::memcpy(&len, payload.data() + off, sizeof(len));
    off += 4;
    if (len > kMaxWireStringBytes || payload.size() - off < len) return false;
    local.push_back(payload.substr(off, len));
    off += len;
  }
  if (off != payload.size()) return false;  // Trailing bytes = malformed.
  *items = std::move(local);
  return true;
}

}  // namespace bbf::net
