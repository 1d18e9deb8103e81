// CRC-32 (IEEE 802.3 polynomial 0x04C11DB7, reflected 0xEDB88320).
//
// Used as the 802.11 frame check sequence (FCS), as the WEP/TKIP
// integrity check value (ICV) and as the WLSR block checksum.
//
// Design: slice-by-8. Eight 256-entry tables, generated at compile time
// from the polynomial, fold eight input bytes per step with eight
// independent lookups; the tail (< 8 bytes) and single-byte updates use the
// classic byte-wise table. Input needs no alignment and the result is
// byte-order independent.

#ifndef WLANSIM_CRYPTO_CRC32_H_
#define WLANSIM_CRYPTO_CRC32_H_

#include <cstdint>
#include <span>

namespace wlansim {

// One-shot CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF).
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental interface for multi-buffer frames.
class Crc32Builder {
 public:
  void Update(std::span<const uint8_t> data);
  void Update(uint8_t byte);
  uint32_t Finalize() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace wlansim

#endif  // WLANSIM_CRYPTO_CRC32_H_
