#include "crypto/aes.h"

#include <cstring>

namespace wlansim {
namespace {

// Computes the AES S-box at compile time from the finite-field inverse plus
// the affine transform, avoiding a hand-transcribed table.
constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) {
      p ^= a;
    }
    const bool hi = (a & 0x80) != 0;
    a = static_cast<uint8_t>(a << 1);
    if (hi) {
      a ^= 0x1B;  // x^8 + x^4 + x^3 + x + 1
    }
    b >>= 1;
  }
  return p;
}

constexpr uint8_t GfInverse(uint8_t a) {
  if (a == 0) {
    return 0;
  }
  // a^(2^8 - 2) = a^254 by square-and-multiply.
  uint8_t result = 1;
  uint8_t base = a;
  int e = 254;
  while (e > 0) {
    if (e & 1) {
      result = GfMul(result, base);
    }
    base = GfMul(base, base);
    e >>= 1;
  }
  return result;
}

constexpr std::array<uint8_t, 256> MakeSbox() {
  std::array<uint8_t, 256> sbox{};
  for (int i = 0; i < 256; ++i) {
    const uint8_t inv = GfInverse(static_cast<uint8_t>(i));
    uint8_t x = inv;
    uint8_t y = inv;
    for (int k = 0; k < 4; ++k) {
      y = static_cast<uint8_t>((y << 1) | (y >> 7));
      x ^= y;
    }
    sbox[i] = x ^ 0x63;
  }
  return sbox;
}

constexpr std::array<uint8_t, 256> kSbox = MakeSbox();

constexpr uint8_t Xtime(uint8_t a) {
  return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1B : 0x00));
}

// The state is four little-endian column words: byte r of word c is row r,
// column c (FIPS-197's column-major state[4*c + r]).
//
// kTe[r][x] is the MixColumns image of a column whose only non-zero byte is
// SubBytes(x) in row r, so one full round of SubBytes + ShiftRows +
// MixColumns is four lookups and three xors per output column.
using TTables = std::array<std::array<uint32_t, 256>, 4>;

constexpr uint32_t Rotl(uint32_t w, int bits) { return (w << bits) | (w >> (32 - bits)); }

constexpr TTables MakeTTables() {
  TTables te{};
  for (int x = 0; x < 256; ++x) {
    const uint8_t s = kSbox[static_cast<size_t>(x)];
    const uint8_t s2 = Xtime(s);
    const uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
    // Rows (2s, s, s, 3s): the MixColumns column for row 0.
    const uint32_t w = static_cast<uint32_t>(s2) | (static_cast<uint32_t>(s) << 8) |
                       (static_cast<uint32_t>(s) << 16) | (static_cast<uint32_t>(s3) << 24);
    te[0][static_cast<size_t>(x)] = w;
    te[1][static_cast<size_t>(x)] = Rotl(w, 8);
    te[2][static_cast<size_t>(x)] = Rotl(w, 16);
    te[3][static_cast<size_t>(x)] = Rotl(w, 24);
  }
  return te;
}

constexpr TTables kTe = MakeTTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

void StoreLe32(uint32_t w, uint8_t* p) {
  p[0] = static_cast<uint8_t>(w);
  p[1] = static_cast<uint8_t>(w >> 8);
  p[2] = static_cast<uint8_t>(w >> 16);
  p[3] = static_cast<uint8_t>(w >> 24);
}

// Output column c of a full round. ShiftRows moves row r of column c + r
// into column c.
uint32_t RoundColumn(uint32_t a, uint32_t b, uint32_t c, uint32_t d, uint32_t rk) {
  return kTe[0][a & 0xFF] ^ kTe[1][(b >> 8) & 0xFF] ^ kTe[2][(c >> 16) & 0xFF] ^ kTe[3][d >> 24] ^
         rk;
}

// Output column of the final round: SubBytes + ShiftRows, no MixColumns.
uint32_t FinalColumn(uint32_t a, uint32_t b, uint32_t c, uint32_t d, uint32_t rk) {
  return (static_cast<uint32_t>(kSbox[a & 0xFF]) |
          (static_cast<uint32_t>(kSbox[(b >> 8) & 0xFF]) << 8) |
          (static_cast<uint32_t>(kSbox[(c >> 16) & 0xFF]) << 16) |
          (static_cast<uint32_t>(kSbox[d >> 24]) << 24)) ^
         rk;
}

}  // namespace

Aes128::Aes128(std::span<const uint8_t, kKeySize> key) {
  uint8_t bytes[176];
  std::memcpy(bytes, key.data(), kKeySize);
  uint8_t rcon = 0x01;
  for (int i = 16; i < 176; i += 4) {
    uint8_t temp[4];
    std::memcpy(temp, bytes + i - 4, 4);
    if (i % 16 == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(kSbox[temp[1]] ^ rcon);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
      rcon = Xtime(rcon);
    }
    for (int k = 0; k < 4; ++k) {
      bytes[i + k] = bytes[i + k - 16] ^ temp[k];
    }
  }
  for (size_t w = 0; w < round_keys_.size(); ++w) {
    round_keys_[w] = LoadLe32(bytes + 4 * w);
  }
}

void Aes128::EncryptBlock(std::span<const uint8_t, kBlockSize> in,
                          std::span<uint8_t, kBlockSize> out) const {
  const uint32_t* rk = round_keys_.data();
  uint32_t s0 = LoadLe32(in.data()) ^ rk[0];
  uint32_t s1 = LoadLe32(in.data() + 4) ^ rk[1];
  uint32_t s2 = LoadLe32(in.data() + 8) ^ rk[2];
  uint32_t s3 = LoadLe32(in.data() + 12) ^ rk[3];
  for (int round = 1; round <= 9; ++round) {
    rk += 4;
    const uint32_t t0 = RoundColumn(s0, s1, s2, s3, rk[0]);
    const uint32_t t1 = RoundColumn(s1, s2, s3, s0, rk[1]);
    const uint32_t t2 = RoundColumn(s2, s3, s0, s1, rk[2]);
    const uint32_t t3 = RoundColumn(s3, s0, s1, s2, rk[3]);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  StoreLe32(FinalColumn(s0, s1, s2, s3, rk[0]), out.data());
  StoreLe32(FinalColumn(s1, s2, s3, s0, rk[1]), out.data() + 4);
  StoreLe32(FinalColumn(s2, s3, s0, s1, rk[2]), out.data() + 8);
  StoreLe32(FinalColumn(s3, s0, s1, s2, rk[3]), out.data() + 12);
}

}  // namespace wlansim
