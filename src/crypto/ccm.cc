#include "crypto/ccm.h"

#include <cassert>
#include <cstring>

namespace wlansim {

Ccm::Ccm(std::span<const uint8_t, Aes128::kKeySize> key, size_t mic_len, size_t length_field_size)
    : aes_(key), mic_len_(mic_len), length_len_(length_field_size) {
  assert(mic_len_ >= 4 && mic_len_ <= 16 && mic_len_ % 2 == 0);
  assert(length_len_ >= 2 && length_len_ <= 8);
}

void Ccm::ComputeMac(std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
                     std::span<const uint8_t> payload, uint8_t mac[Aes128::kBlockSize]) const {
  assert(nonce.size() == nonce_length());
  uint8_t block[16];

  // B0: flags | nonce | l(m).
  const uint8_t adata = aad.empty() ? 0 : 0x40;
  const uint8_t m_enc = static_cast<uint8_t>(((mic_len_ - 2) / 2) << 3);
  const uint8_t l_enc = static_cast<uint8_t>(length_len_ - 1);
  block[0] = static_cast<uint8_t>(adata | m_enc | l_enc);
  std::memcpy(block + 1, nonce.data(), nonce.size());
  uint64_t len = payload.size();
  for (size_t i = 0; i < length_len_; ++i) {
    block[15 - i] = static_cast<uint8_t>(len & 0xFF);
    len >>= 8;
  }
  assert(len == 0 && "payload too long for length field");

  aes_.EncryptBlock(std::span<const uint8_t, 16>(block, 16), std::span<uint8_t, 16>(mac, 16));

  // AAD: 2-byte length prefix (we only support AAD < 2^16 - 2^8, which covers
  // all 802.11 headers), then the AAD itself, zero-padded to a block.
  if (!aad.empty()) {
    assert(aad.size() < 0xFF00);
    uint8_t chunk[16];
    chunk[0] = static_cast<uint8_t>(aad.size() >> 8);
    chunk[1] = static_cast<uint8_t>(aad.size() & 0xFF);
    size_t fill = 2;
    size_t consumed = 0;
    while (consumed < aad.size()) {
      const size_t n = std::min(aad.size() - consumed, 16 - fill);
      std::memcpy(chunk + fill, aad.data() + consumed, n);
      consumed += n;
      fill += n;
      if (fill == 16 || consumed == aad.size()) {
        std::memset(chunk + fill, 0, 16 - fill);
        for (int i = 0; i < 16; ++i) {
          mac[i] ^= chunk[i];
        }
        aes_.EncryptBlock(std::span<const uint8_t, 16>(mac, 16), std::span<uint8_t, 16>(mac, 16));
        fill = 0;
      }
    }
  }

  // Payload blocks, zero-padded.
  size_t consumed = 0;
  while (consumed < payload.size()) {
    const size_t n = std::min(payload.size() - consumed, size_t{16});
    for (size_t i = 0; i < n; ++i) {
      mac[i] ^= payload[consumed + i];
    }
    aes_.EncryptBlock(std::span<const uint8_t, 16>(mac, 16), std::span<uint8_t, 16>(mac, 16));
    consumed += n;
  }
}

void Ccm::CounterBlock(std::span<const uint8_t> nonce, uint64_t counter,
                       uint8_t out[Aes128::kBlockSize]) const {
  uint8_t block[16];
  block[0] = static_cast<uint8_t>(length_len_ - 1);
  std::memcpy(block + 1, nonce.data(), nonce.size());
  for (size_t i = 0; i < length_len_; ++i) {
    block[15 - i] = static_cast<uint8_t>(counter & 0xFF);
    counter >>= 8;
  }
  aes_.EncryptBlock(std::span<const uint8_t, 16>(block, 16), std::span<uint8_t, 16>(out, 16));
}

void Ccm::CtrProcess(std::span<const uint8_t> nonce, std::span<const uint8_t> in,
                     std::span<uint8_t> out) const {
  assert(in.size() == out.size() && out.data() <= in.data());
  uint8_t keystream[16];
  uint64_t counter = 1;
  size_t consumed = 0;
  while (consumed < in.size()) {
    CounterBlock(nonce, counter++, keystream);
    const size_t n = std::min(in.size() - consumed, size_t{16});
    for (size_t i = 0; i < n; ++i) {
      out[consumed + i] = in[consumed + i] ^ keystream[i];
    }
    consumed += n;
  }
}

Ccm::Mic Ccm::Encrypt(std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
                      std::span<uint8_t> payload) const {
  uint8_t mac[16];
  ComputeMac(nonce, aad, payload, mac);

  // MIC = first M bytes of CBC-MAC, encrypted with counter block A_0.
  uint8_t a0[16];
  CounterBlock(nonce, 0, a0);
  Mic mic{};
  for (size_t i = 0; i < mic_len_; ++i) {
    mic[i] = mac[i] ^ a0[i];
  }

  CtrProcess(nonce, payload, payload);
  return mic;
}

bool Ccm::Decrypt(std::span<const uint8_t> nonce, std::span<const uint8_t> aad,
                  std::span<const uint8_t> ciphertext, std::span<uint8_t> plaintext,
                  std::span<const uint8_t> mic) const {
  if (mic.size() != mic_len_) {
    return false;
  }
  CtrProcess(nonce, ciphertext, plaintext);  // CTR is an involution

  uint8_t mac[16];
  ComputeMac(nonce, aad, plaintext, mac);
  uint8_t a0[16];
  CounterBlock(nonce, 0, a0);

  uint8_t diff = 0;
  for (size_t i = 0; i < mic_len_; ++i) {
    diff |= static_cast<uint8_t>((mac[i] ^ a0[i]) ^ mic[i]);
  }
  return diff == 0;
}

}  // namespace wlansim
