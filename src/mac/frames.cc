#include "mac/frames.h"

#include <cassert>
#include <cstring>

#include "crypto/crc32.h"

namespace wlansim {
namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xFF));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutAddress(std::vector<uint8_t>& out, const MacAddress& a) {
  out.insert(out.end(), a.bytes().begin(), a.bytes().end());
}

uint16_t GetU16(std::span<const uint8_t> in, size_t offset) {
  return static_cast<uint16_t>(in[offset] | (in[offset + 1] << 8));
}

uint64_t GetU64(std::span<const uint8_t> in, size_t offset) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | in[offset + static_cast<size_t>(i)];
  }
  return v;
}

MacAddress GetAddress(std::span<const uint8_t> in, size_t offset) {
  std::array<uint8_t, 6> bytes;
  std::memcpy(bytes.data(), in.data() + offset, 6);
  return MacAddress(bytes);
}

}  // namespace

size_t MacHeader::SerializedSize() const {
  if (type == FrameType::kControl) {
    switch (subtype) {
      case FrameSubtype::kCts:
      case FrameSubtype::kAck:
        return 10;  // FC + duration + RA
      default:
        return 16;  // FC + duration + RA + TA (RTS, PS-Poll)
    }
  }
  return 24;  // FC + duration + 3 addresses + sequence control
}

void MacHeader::Serialize(std::vector<uint8_t>& out) const {
  // Frame control, bit layout per the standard (protocol version = 0).
  uint16_t fc = 0;
  fc |= static_cast<uint16_t>(static_cast<uint16_t>(type) << 2);
  fc |= static_cast<uint16_t>(static_cast<uint16_t>(subtype) << 4);
  if (to_ds) fc |= 1u << 8;
  if (from_ds) fc |= 1u << 9;
  if (more_fragments) fc |= 1u << 10;
  if (retry) fc |= 1u << 11;
  if (power_mgmt) fc |= 1u << 12;
  if (more_data) fc |= 1u << 13;
  if (protected_frame) fc |= 1u << 14;
  if (order) fc |= 1u << 15;

  PutU16(out, fc);
  PutU16(out, duration_us);
  PutAddress(out, addr1);
  if (SerializedSize() == 10) {
    return;
  }
  PutAddress(out, addr2);
  if (SerializedSize() == 16) {
    return;
  }
  PutAddress(out, addr3);
  PutU16(out, static_cast<uint16_t>((sequence << 4) | (fragment & 0x0F)));
}

std::optional<MacHeader> MacHeader::Deserialize(std::span<const uint8_t> in) {
  if (in.size() < 10) {
    return std::nullopt;
  }
  const uint16_t fc = GetU16(in, 0);
  MacHeader h;
  if ((fc & 0x3) != 0) {
    return std::nullopt;  // protocol version must be 0
  }
  const auto type_bits = static_cast<uint8_t>((fc >> 2) & 0x3);
  if (type_bits > 2) {
    return std::nullopt;
  }
  h.type = static_cast<FrameType>(type_bits);
  h.subtype = static_cast<FrameSubtype>((fc >> 4) & 0xF);
  h.to_ds = (fc >> 8) & 1;
  h.from_ds = (fc >> 9) & 1;
  h.more_fragments = (fc >> 10) & 1;
  h.retry = (fc >> 11) & 1;
  h.power_mgmt = (fc >> 12) & 1;
  h.more_data = (fc >> 13) & 1;
  h.protected_frame = (fc >> 14) & 1;
  h.order = (fc >> 15) & 1;
  h.duration_us = GetU16(in, 2);
  h.addr1 = GetAddress(in, 4);

  const size_t want = h.SerializedSize();
  if (in.size() < want) {
    return std::nullopt;
  }
  if (want == 10) {
    return h;
  }
  h.addr2 = GetAddress(in, 10);
  if (want == 16) {
    return h;
  }
  h.addr3 = GetAddress(in, 16);
  const uint16_t sc = GetU16(in, 22);
  h.sequence = static_cast<uint16_t>(sc >> 4);
  h.fragment = static_cast<uint8_t>(sc & 0x0F);
  return h;
}

Packet BuildMpdu(const MacHeader& header, std::span<const uint8_t> body, PacketMeta meta) {
  std::vector<uint8_t> bytes;
  bytes.reserve(header.SerializedSize() + body.size() + kFcsSize);
  header.Serialize(bytes);
  bytes.insert(bytes.end(), body.begin(), body.end());
  const uint32_t fcs = Crc32(bytes);
  bytes.push_back(static_cast<uint8_t>(fcs));
  bytes.push_back(static_cast<uint8_t>(fcs >> 8));
  bytes.push_back(static_cast<uint8_t>(fcs >> 16));
  bytes.push_back(static_cast<uint8_t>(fcs >> 24));

  Packet packet{std::span<const uint8_t>(bytes)};
  packet.meta() = meta;
  return packet;
}

// Stripping header and FCS goes through Packet's offset-only Remove ops,
// so parsing a received MPDU never detaches the buffer the channel fan-out
// shares across receivers: the whole decode path down to the body is
// zero-copy. The FCS is hashed once per (buffer, window): a passing check
// is memoised in the buffer header, and every other receiver of the same
// transmission reuses it. Any write to the buffer clears the memo.
std::optional<MacHeader> ParseMpdu(Packet& packet) {
  auto bytes = packet.bytes();
  if (bytes.size() < 10 + kFcsSize) {
    return std::nullopt;
  }
  if (!packet.FcsVerified()) {
    const size_t n = bytes.size() - kFcsSize;
    const uint32_t want = static_cast<uint32_t>(bytes[n]) |
                          (static_cast<uint32_t>(bytes[n + 1]) << 8) |
                          (static_cast<uint32_t>(bytes[n + 2]) << 16) |
                          (static_cast<uint32_t>(bytes[n + 3]) << 24);
    if (Crc32(bytes.subspan(0, n)) != want) {
      return std::nullopt;
    }
    packet.MarkFcsVerified();
  }
  auto header = MacHeader::Deserialize(bytes);
  if (!header.has_value()) {
    return std::nullopt;
  }
  packet.RemoveTrailer(kFcsSize);
  packet.RemoveHeader(header->SerializedSize());
  return header;
}

size_t MpduSize(const MacHeader& header, size_t body_bytes) {
  return header.SerializedSize() + body_bytes + kFcsSize;
}

// --- Management bodies --------------------------------------------------------

std::vector<uint8_t> BeaconBody::Serialize() const {
  std::vector<uint8_t> out;
  PutU64(out, timestamp_us);
  PutU16(out, beacon_interval_tu);
  PutU16(out, capability);
  // SSID element (id 0) + DS parameter set (id 3, channel).
  out.push_back(0);
  out.push_back(static_cast<uint8_t>(ssid.size()));
  out.insert(out.end(), ssid.begin(), ssid.end());
  out.push_back(3);
  out.push_back(1);
  out.push_back(channel);
  if (!tim_aids.empty()) {
    out.push_back(5);  // TIM element
    out.push_back(static_cast<uint8_t>(2 * tim_aids.size()));
    for (uint16_t aid : tim_aids) {
      PutU16(out, aid);
    }
  }
  return out;
}

std::optional<BeaconBody> BeaconBody::Deserialize(std::span<const uint8_t> in) {
  if (in.size() < 12 + 2) {
    return std::nullopt;
  }
  BeaconBody b;
  b.timestamp_us = GetU64(in, 0);
  b.beacon_interval_tu = GetU16(in, 8);
  b.capability = GetU16(in, 10);
  size_t pos = 12;
  while (pos + 2 <= in.size()) {
    const uint8_t id = in[pos];
    const uint8_t len = in[pos + 1];
    if (pos + 2 + len > in.size()) {
      return std::nullopt;
    }
    if (id == 0) {
      b.ssid.assign(in.begin() + static_cast<ptrdiff_t>(pos) + 2,
                    in.begin() + static_cast<ptrdiff_t>(pos) + 2 + len);
    } else if (id == 3 && len == 1) {
      b.channel = in[pos + 2];
    } else if (id == 5 && len % 2 == 0) {
      for (size_t k = 0; k + 1 < len; k += 2) {
        b.tim_aids.push_back(GetU16(in, pos + 2 + k));
      }
    }
    pos += 2 + len;
  }
  return b;
}

std::vector<uint8_t> AssocRequestBody::Serialize() const {
  std::vector<uint8_t> out;
  PutU16(out, capability);
  PutU16(out, listen_interval);
  out.push_back(0);
  out.push_back(static_cast<uint8_t>(ssid.size()));
  out.insert(out.end(), ssid.begin(), ssid.end());
  return out;
}

std::optional<AssocRequestBody> AssocRequestBody::Deserialize(std::span<const uint8_t> in) {
  if (in.size() < 6) {
    return std::nullopt;
  }
  AssocRequestBody b;
  b.capability = GetU16(in, 0);
  b.listen_interval = GetU16(in, 2);
  const uint8_t len = in[5];
  if (in[4] != 0 || in.size() < 6u + len) {
    return std::nullopt;
  }
  b.ssid.assign(in.begin() + 6, in.begin() + 6 + len);
  return b;
}

std::vector<uint8_t> AssocResponseBody::Serialize() const {
  std::vector<uint8_t> out;
  PutU16(out, capability);
  PutU16(out, status);
  PutU16(out, aid);
  return out;
}

std::optional<AssocResponseBody> AssocResponseBody::Deserialize(std::span<const uint8_t> in) {
  if (in.size() < 6) {
    return std::nullopt;
  }
  AssocResponseBody b;
  b.capability = GetU16(in, 0);
  b.status = GetU16(in, 2);
  b.aid = GetU16(in, 4);
  return b;
}

std::vector<uint8_t> AuthBody::Serialize() const {
  std::vector<uint8_t> out;
  PutU16(out, algorithm);
  PutU16(out, sequence);
  PutU16(out, status);
  return out;
}

std::optional<AuthBody> AuthBody::Deserialize(std::span<const uint8_t> in) {
  if (in.size() < 6) {
    return std::nullopt;
  }
  AuthBody b;
  b.algorithm = GetU16(in, 0);
  b.sequence = GetU16(in, 2);
  b.status = GetU16(in, 4);
  return b;
}

Time RtsDuration(const WifiMode& mode, bool short_preamble) {
  return FrameDuration(mode, kRtsFrameSize, short_preamble);
}
Time CtsDuration(const WifiMode& mode, bool short_preamble) {
  return FrameDuration(mode, kCtsFrameSize, short_preamble);
}
Time AckDuration(const WifiMode& mode, bool short_preamble) {
  return FrameDuration(mode, kAckFrameSize, short_preamble);
}

}  // namespace wlansim
