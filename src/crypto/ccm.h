// CCM authenticated encryption (RFC 3610): AES-128 in CBC-MAC + counter mode.
//
// Parameterized by M (MIC length, even, 4..16) and L (length-field size,
// 2..8); the nonce is 15-L bytes. CCMP uses M=8, L=2.

#ifndef WLANSIM_CRYPTO_CCM_H_
#define WLANSIM_CRYPTO_CCM_H_

#include <array>
#include <cstdint>
#include <span>

#include "crypto/aes.h"

namespace wlansim {

class Ccm {
 public:
  static constexpr size_t kMaxMicLength = 16;
  // A MIC; only the first mic_length() bytes are meaningful.
  using Mic = std::array<uint8_t, kMaxMicLength>;

  Ccm(std::span<const uint8_t, Aes128::kKeySize> key, size_t mic_len, size_t length_field_size);

  size_t mic_length() const { return mic_len_; }
  size_t nonce_length() const { return 15 - length_len_; }

  // Encrypts `payload` in place and returns the MIC in the first
  // mic_length() bytes. `nonce` must be nonce_length() bytes; `aad` is
  // authenticated only.
  Mic Encrypt(std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
              std::span<uint8_t> payload) const;

  // Decrypts `ciphertext` into `plaintext` (same size) and checks `mic`.
  // `plaintext` may be `ciphertext` itself or start before it in the same
  // buffer, which lets a caller strip a header in the same pass. Returns
  // false (leaving the plaintext decrypted but untrusted) on MIC mismatch.
  bool Decrypt(std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
               std::span<const uint8_t> ciphertext, std::span<uint8_t> plaintext,
               std::span<const uint8_t> mic) const;

 private:
  // CBC-MAC over B0 | encoded(aad) | payload, per RFC 3610 §2.2.
  void ComputeMac(std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
                  std::span<const uint8_t> payload, uint8_t mac[Aes128::kBlockSize]) const;

  // Counter-mode keystream block A_i for the given nonce.
  void CounterBlock(std::span<const uint8_t> nonce, uint64_t counter,
                    uint8_t out[Aes128::kBlockSize]) const;

  // out[i] = in[i] ^ keystream[i]; `out` may equal `in` or start before it.
  void CtrProcess(std::span<const uint8_t> nonce, std::span<const uint8_t> in,
                  std::span<uint8_t> out) const;

  Aes128 aes_;
  size_t mic_len_;
  size_t length_len_;
};

}  // namespace wlansim

#endif  // WLANSIM_CRYPTO_CCM_H_
