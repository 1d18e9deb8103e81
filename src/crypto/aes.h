// AES-128 block cipher (FIPS-197), encryption direction only — CCM (counter
// mode + CBC-MAC) never needs the inverse cipher.
//
// Design: 32-bit T-tables. The state is four column words; each of the nine
// full rounds folds SubBytes, ShiftRows and MixColumns into four lookups in
// 256-entry word tables per column, and the last round uses the S-box
// alone. The S-box and the tables are computed at compile time from the
// GF(2^8) definition rather than transcribed. The lookups are indexed by
// secret data, so this is not constant-time — fine for a simulator, not
// for protecting real traffic.

#ifndef WLANSIM_CRYPTO_AES_H_
#define WLANSIM_CRYPTO_AES_H_

#include <array>
#include <cstdint>
#include <span>

namespace wlansim {

class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;

  // Expands the 128-bit `key` into the round-key schedule.
  explicit Aes128(std::span<const uint8_t, kKeySize> key);

  // Encrypts one 16-byte block: out = E_k(in). in/out may alias.
  void EncryptBlock(std::span<const uint8_t, kBlockSize> in,
                    std::span<uint8_t, kBlockSize> out) const;

 private:
  // 11 round keys × 4 little-endian column words.
  std::array<uint32_t, 44> round_keys_;
};

}  // namespace wlansim

#endif  // WLANSIM_CRYPTO_AES_H_
