// IEEE 802.11 MAC frame formats (§4.2 of the standard): bit-exact
// little-endian serialization of the MAC header (frame control, duration/ID,
// addresses, sequence control), management frame bodies, and the CRC-32 FCS.
//
// Header sizes: CTS/ACK 10 B, RTS 16 B, management/data 24 B (three-address
// format; the 4-address WDS format is out of scope). Every frame carries a
// 4-byte FCS trailer.

#ifndef WLANSIM_MAC_FRAMES_H_
#define WLANSIM_MAC_FRAMES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/mac_address.h"
#include "core/packet.h"
#include "core/time.h"
#include "phy/wifi_mode.h"

namespace wlansim {

enum class FrameType : uint8_t {
  kManagement = 0,
  kControl = 1,
  kData = 2,
};

// Subtype values follow the standard's 4-bit encodings.
enum class FrameSubtype : uint8_t {
  // Management.
  kAssocRequest = 0,
  kAssocResponse = 1,
  kProbeRequest = 4,
  kProbeResponse = 5,
  kBeacon = 8,
  kDisassociation = 10,
  kAuthentication = 11,
  kDeauthentication = 12,
  // Control.
  kPsPoll = 10,
  kRts = 11,
  kCts = 12,
  kAck = 13,
  // Data.
  kData = 0,
  kNullData = 4,  // no payload; carries the power-management bit
};

struct MacHeader {
  FrameType type = FrameType::kData;
  FrameSubtype subtype = FrameSubtype::kData;
  bool to_ds = false;
  bool from_ds = false;
  bool more_fragments = false;
  bool retry = false;
  bool power_mgmt = false;
  bool more_data = false;
  bool protected_frame = false;
  bool order = false;
  uint16_t duration_us = 0;  // duration/ID field (NAV microseconds)
  MacAddress addr1;          // RA / DA
  MacAddress addr2;          // TA / SA (absent in CTS/ACK)
  MacAddress addr3;          // BSSID / DA / SA (data & management only)
  uint16_t sequence = 0;     // 12-bit sequence number
  uint8_t fragment = 0;      // 4-bit fragment number

  bool IsCtl(FrameSubtype s) const { return type == FrameType::kControl && subtype == s; }
  bool IsMgmt(FrameSubtype s) const { return type == FrameType::kManagement && subtype == s; }
  bool IsData() const { return type == FrameType::kData; }
  bool IsBeacon() const { return IsMgmt(FrameSubtype::kBeacon); }

  // Serialized header length for this frame type/subtype.
  size_t SerializedSize() const;

  void Serialize(std::vector<uint8_t>& out) const;
  static std::optional<MacHeader> Deserialize(std::span<const uint8_t> in);
};

// FCS helpers: the FCS covers header + body.
constexpr size_t kFcsSize = 4;

// Builds the on-air MPDU: header | body | FCS. The result is placed in a
// Packet (preserving `meta`).
Packet BuildMpdu(const MacHeader& header, std::span<const uint8_t> body, PacketMeta meta = {});

// Parses an MPDU: verifies the FCS, extracts the header and strips both
// (leaving the body in `packet`). Returns nullopt on malformed frames. A
// passing FCS is memoised on the packet's buffer (Packet::FcsVerified), so
// sibling views of the same bytes are not hashed again.
std::optional<MacHeader> ParseMpdu(Packet& packet);

// Total MPDU size for a given body length (for duration precomputation).
size_t MpduSize(const MacHeader& header, size_t body_bytes);

// --- Management frame bodies -------------------------------------------------

struct BeaconBody {
  uint64_t timestamp_us = 0;
  uint16_t beacon_interval_tu = 100;  // 1 TU = 1024 us
  uint16_t capability = 0x0001;       // ESS
  std::string ssid;
  uint8_t channel = 1;
  // Traffic indication map: association IDs with frames buffered at the AP
  // (serialized as element id 5; a simplified AID list instead of the
  // standard's partial-virtual-bitmap encoding).
  std::vector<uint16_t> tim_aids;

  bool TimContains(uint16_t aid) const {
    for (uint16_t a : tim_aids) {
      if (a == aid) {
        return true;
      }
    }
    return false;
  }

  std::vector<uint8_t> Serialize() const;
  static std::optional<BeaconBody> Deserialize(std::span<const uint8_t> in);
};

struct AssocRequestBody {
  // Capability bit 0x4000 advertises ERP (OFDM) support; stations without it
  // are legacy DSSS-only devices the AP must address at DSSS rates.
  static constexpr uint16_t kCapErp = 0x4000;
  uint16_t capability = 0x0001;
  uint16_t listen_interval = 1;
  std::string ssid;

  bool IsErp() const { return (capability & kCapErp) != 0; }

  std::vector<uint8_t> Serialize() const;
  static std::optional<AssocRequestBody> Deserialize(std::span<const uint8_t> in);
};

struct AssocResponseBody {
  uint16_t capability = 0x0001;
  uint16_t status = 0;  // 0 = success
  uint16_t aid = 0;

  std::vector<uint8_t> Serialize() const;
  static std::optional<AssocResponseBody> Deserialize(std::span<const uint8_t> in);
};

struct AuthBody {
  uint16_t algorithm = 0;  // open system
  uint16_t sequence = 1;
  uint16_t status = 0;

  std::vector<uint8_t> Serialize() const;
  static std::optional<AuthBody> Deserialize(std::span<const uint8_t> in);
};

// --- Control frame sizes ------------------------------------------------------

constexpr size_t kRtsFrameSize = 16 + kFcsSize;
constexpr size_t kCtsFrameSize = 10 + kFcsSize;
constexpr size_t kAckFrameSize = 10 + kFcsSize;
constexpr size_t kDataHeaderSize = 24;

// On-air durations of control frames at `mode`.
Time RtsDuration(const WifiMode& mode, bool short_preamble = false);
Time CtsDuration(const WifiMode& mode, bool short_preamble = false);
Time AckDuration(const WifiMode& mode, bool short_preamble = false);

}  // namespace wlansim

#endif  // WLANSIM_MAC_FRAMES_H_
