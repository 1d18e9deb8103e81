#include "crypto/crc32.h"

#include <array>

namespace wlansim {
namespace {

// kTables[0] is the classic byte-wise table. kTables[k][i] is the CRC state
// after feeding byte i followed by k zero bytes, so eight lookups — one per
// table — advance the state over an 8-byte word at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

void Crc32Builder::Update(std::span<const uint8_t> data) {
  uint32_t c = state_;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^ kTables[5][(lo >> 16) & 0xFF] ^
        kTables[4][lo >> 24] ^ kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  state_ = c;
}

void Crc32Builder::Update(uint8_t byte) {
  state_ = kTables[0][(state_ ^ byte) & 0xFF] ^ (state_ >> 8);
}

uint32_t Crc32(std::span<const uint8_t> data) {
  Crc32Builder builder;
  builder.Update(data);
  return builder.Finalize();
}

}  // namespace wlansim
