#include "crypto/cipher_suite.h"

#include <cassert>
#include <cstring>

#include "crypto/ccm.h"
#include "crypto/crc32.h"
#include "crypto/michael.h"
#include "crypto/rc4.h"
#include "crypto/tkip.h"

namespace wlansim {

std::string ToString(CipherSuite suite) {
  switch (suite) {
    case CipherSuite::kOpen:
      return "open";
    case CipherSuite::kWep:
      return "wep";
    case CipherSuite::kTkip:
      return "tkip";
    case CipherSuite::kCcmp:
      return "ccmp";
  }
  return "?";
}

size_t CipherHeaderBytes(CipherSuite suite) {
  switch (suite) {
    case CipherSuite::kOpen:
      return 0;
    case CipherSuite::kWep:
      return 4;  // IV[3] + KeyID
    case CipherSuite::kTkip:
      return 8;  // TSC1, WEPSeed, TSC0, KeyID|ExtIV, TSC2..TSC5
    case CipherSuite::kCcmp:
      return 8;  // PN0, PN1, rsvd, KeyID|ExtIV, PN2..PN5
  }
  return 0;
}

size_t CipherTrailerBytes(CipherSuite suite) {
  switch (suite) {
    case CipherSuite::kOpen:
      return 0;
    case CipherSuite::kWep:
      return 4;  // ICV
    case CipherSuite::kTkip:
      return 12;  // Michael MIC (8) + ICV (4)
    case CipherSuite::kCcmp:
      return 8;  // CCM MIC
  }
  return 0;
}

namespace {

class OpenCipher final : public LinkCipher {
 public:
  CipherSuite suite() const override { return CipherSuite::kOpen; }
  void Protect(const FrameCryptoContext&, std::vector<uint8_t>&) override {}
  bool Unprotect(const FrameCryptoContext&, std::vector<uint8_t>&) override { return true; }
};

class WepCipher final : public LinkCipher {
 public:
  explicit WepCipher(std::span<const uint8_t> key) : key_(key.begin(), key.end()) {
    assert(key.size() == 5 || key.size() == 13);
  }

  CipherSuite suite() const override { return CipherSuite::kWep; }

  void Protect(const FrameCryptoContext&, std::vector<uint8_t>& body) override {
    // One up-front reservation for the full re-framed MPDU body, so the
    // ICV push_backs and the header insert below never reallocate.
    body.reserve(body.size() + CipherTotalOverheadBytes(CipherSuite::kWep));
    // Header: IV (24-bit counter, the classic weakness) + KeyID byte.
    const uint32_t iv = iv_counter_++ & 0xFFFFFF;
    uint8_t header[4] = {static_cast<uint8_t>(iv >> 16), static_cast<uint8_t>(iv >> 8),
                         static_cast<uint8_t>(iv), 0 /* key id 0 */};

    // Append ICV = CRC32(plaintext), then RC4(IV || key) over payload+ICV.
    const uint32_t icv = Crc32(body);
    body.push_back(static_cast<uint8_t>(icv));
    body.push_back(static_cast<uint8_t>(icv >> 8));
    body.push_back(static_cast<uint8_t>(icv >> 16));
    body.push_back(static_cast<uint8_t>(icv >> 24));

    std::vector<uint8_t> seed(3 + key_.size());
    std::memcpy(seed.data(), header, 3);
    std::memcpy(seed.data() + 3, key_.data(), key_.size());
    Rc4 rc4(seed);
    rc4.Process(body);

    body.insert(body.begin(), header, header + 4);
  }

  bool Unprotect(const FrameCryptoContext&, std::vector<uint8_t>& body) override {
    if (body.size() < 8) {
      return false;
    }
    uint8_t iv[3] = {body[0], body[1], body[2]};
    body.erase(body.begin(), body.begin() + 4);

    std::vector<uint8_t> seed(3 + key_.size());
    std::memcpy(seed.data(), iv, 3);
    std::memcpy(seed.data() + 3, key_.data(), key_.size());
    Rc4 rc4(seed);
    rc4.Process(body);

    const size_t n = body.size() - 4;
    const uint32_t got = static_cast<uint32_t>(body[n]) | (static_cast<uint32_t>(body[n + 1]) << 8) |
                         (static_cast<uint32_t>(body[n + 2]) << 16) |
                         (static_cast<uint32_t>(body[n + 3]) << 24);
    body.resize(n);
    return got == Crc32(body);
  }

 private:
  std::vector<uint8_t> key_;
  uint32_t iv_counter_ = 0;
};

class TkipCipher final : public LinkCipher {
 public:
  explicit TkipCipher(std::span<const uint8_t> key) {
    assert(key.size() == TkipMixer::kTkSize);
    std::copy(key.begin(), key.end(), tk_.begin());
    // Derive the Michael key from the TK so a single 16-byte key configures
    // the suite (a real 802.11i PTK carries independent Michael key bytes;
    // this derivation keeps the simulation self-contained and deterministic).
    for (size_t i = 0; i < Michael::kKeySize; ++i) {
      mic_key_[i] = static_cast<uint8_t>(tk_[i] ^ tk_[i + 8] ^ 0x5a);
    }
  }

  CipherSuite suite() const override { return CipherSuite::kTkip; }

  void Protect(const FrameCryptoContext& ctx, std::vector<uint8_t>& body) override {
    // One up-front reservation for the full re-framed MPDU body (MIC, ICV,
    // TKIP header) so none of the appends/inserts below reallocates.
    body.reserve(body.size() + CipherTotalOverheadBytes(CipherSuite::kTkip));
    // 1. Append Michael MIC over DA|SA|priority|payload.
    const auto mic = Michael::ComputeForMsdu(std::span<const uint8_t, 8>(mic_key_), ctx.da, ctx.sa,
                                             ctx.priority, body);
    body.insert(body.end(), mic.begin(), mic.end());

    // 2. WEP-encapsulate with the mixed per-packet key.
    if (iv16_ == 0) {
      ttak_ = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk_), ctx.ta, iv32_);
    }
    const auto rc4_key = TkipMixer::Phase2(ttak_, std::span<const uint8_t, 16>(tk_), iv16_);

    const uint32_t icv = Crc32(body);
    body.push_back(static_cast<uint8_t>(icv));
    body.push_back(static_cast<uint8_t>(icv >> 8));
    body.push_back(static_cast<uint8_t>(icv >> 16));
    body.push_back(static_cast<uint8_t>(icv >> 24));

    Rc4 rc4(rc4_key);
    rc4.Process(body);

    // 3. Prepend the TKIP header: TSC1, WEPSeed, TSC0, KeyID|ExtIV, TSC2-5.
    uint8_t header[8];
    header[0] = rc4_key[0];
    header[1] = rc4_key[1];
    header[2] = rc4_key[2];
    header[3] = 0x20;  // ExtIV, key id 0
    header[4] = static_cast<uint8_t>(iv32_);
    header[5] = static_cast<uint8_t>(iv32_ >> 8);
    header[6] = static_cast<uint8_t>(iv32_ >> 16);
    header[7] = static_cast<uint8_t>(iv32_ >> 24);
    body.insert(body.begin(), header, header + 8);

    if (++iv16_ == 0) {
      ++iv32_;  // rollover re-runs phase 1 on the next packet
    }
  }

  bool Unprotect(const FrameCryptoContext& ctx, std::vector<uint8_t>& body) override {
    if (body.size() < 8 + 12) {
      return false;
    }
    const uint16_t iv16 = static_cast<uint16_t>((body[0] << 8) | body[2]);
    const uint32_t iv32 = static_cast<uint32_t>(body[4]) | (static_cast<uint32_t>(body[5]) << 8) |
                          (static_cast<uint32_t>(body[6]) << 16) |
                          (static_cast<uint32_t>(body[7]) << 24);
    body.erase(body.begin(), body.begin() + 8);

    const auto ttak = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk_), ctx.ta, iv32);
    const auto rc4_key = TkipMixer::Phase2(ttak, std::span<const uint8_t, 16>(tk_), iv16);
    Rc4 rc4(rc4_key);
    rc4.Process(body);

    // ICV check.
    size_t n = body.size() - 4;
    const uint32_t got = static_cast<uint32_t>(body[n]) | (static_cast<uint32_t>(body[n + 1]) << 8) |
                         (static_cast<uint32_t>(body[n + 2]) << 16) |
                         (static_cast<uint32_t>(body[n + 3]) << 24);
    body.resize(n);
    if (got != Crc32(body)) {
      return false;
    }

    // Michael check.
    n = body.size() - Michael::kMicSize;
    const auto expect = Michael::ComputeForMsdu(std::span<const uint8_t, 8>(mic_key_), ctx.da,
                                                ctx.sa, ctx.priority,
                                                std::span<const uint8_t>(body.data(), n));
    const bool ok = std::equal(expect.begin(), expect.end(), body.begin() + n);
    body.resize(n);
    return ok;
  }

 private:
  std::array<uint8_t, 16> tk_{};
  std::array<uint8_t, 8> mic_key_{};
  TkipMixer::Ttak ttak_{};
  uint16_t iv16_ = 0;
  uint32_t iv32_ = 0;
};

class CcmpCipher final : public LinkCipher {
 public:
  explicit CcmpCipher(std::span<const uint8_t> key)
      : ccm_(std::span<const uint8_t, 16>(key.data(), 16), kMicSize,
             /*length_field_size=*/2) {
    assert(key.size() == 16);
  }

  CipherSuite suite() const override { return CipherSuite::kCcmp; }

  void Protect(const FrameCryptoContext& ctx, std::vector<uint8_t>& body) override {
    // One up-front reservation for the full re-framed MPDU body (CCMP
    // header + MIC) so the inserts below never reallocate.
    body.reserve(body.size() + CipherTotalOverheadBytes(CipherSuite::kCcmp));
    const uint64_t pn = ++pn_;

    uint8_t nonce[13];
    BuildNonce(ctx, pn, nonce);
    const auto aad = BuildAad(ctx);

    const Ccm::Mic mic = ccm_.Encrypt(nonce, aad, body);

    uint8_t header[kHeaderSize];
    header[0] = static_cast<uint8_t>(pn);
    header[1] = static_cast<uint8_t>(pn >> 8);
    header[2] = 0;
    header[3] = 0x20;  // ExtIV, key id 0
    header[4] = static_cast<uint8_t>(pn >> 16);
    header[5] = static_cast<uint8_t>(pn >> 24);
    header[6] = static_cast<uint8_t>(pn >> 32);
    header[7] = static_cast<uint8_t>(pn >> 40);
    body.insert(body.begin(), header, header + kHeaderSize);
    body.insert(body.end(), mic.begin(), mic.begin() + kMicSize);
  }

  bool Unprotect(const FrameCryptoContext& ctx, std::vector<uint8_t>& body) override {
    if (body.size() < kHeaderSize + kMicSize) {
      return false;
    }
    const uint64_t pn = static_cast<uint64_t>(body[0]) | (static_cast<uint64_t>(body[1]) << 8) |
                        (static_cast<uint64_t>(body[4]) << 16) |
                        (static_cast<uint64_t>(body[5]) << 24) |
                        (static_cast<uint64_t>(body[6]) << 32) |
                        (static_cast<uint64_t>(body[7]) << 40);
    if (pn <= last_rx_pn_) {
      return false;  // replay
    }

    uint8_t nonce[13];
    BuildNonce(ctx, pn, nonce);
    const auto aad = BuildAad(ctx);

    // Layout: header(8) | ciphertext(n) | MIC(8). Decrypting into the front
    // of the buffer strips the header in the same pass as the keystream.
    const size_t n = body.size() - kHeaderSize - kMicSize;
    const std::span<const uint8_t> ciphertext(body.data() + kHeaderSize, n);
    const std::span<const uint8_t> mic(body.data() + kHeaderSize + n, kMicSize);
    const bool ok = ccm_.Decrypt(nonce, aad, ciphertext, std::span<uint8_t>(body.data(), n), mic);
    body.resize(n);
    if (!ok) {
      return false;
    }
    last_rx_pn_ = pn;
    return true;
  }

 private:
  void BuildNonce(const FrameCryptoContext& ctx, uint64_t pn, uint8_t nonce[13]) const {
    nonce[0] = ctx.priority;
    std::copy(ctx.ta.bytes().begin(), ctx.ta.bytes().end(), nonce + 1);
    for (int i = 0; i < 6; ++i) {
      nonce[7 + i] = static_cast<uint8_t>(pn >> (8 * (5 - i)));  // PN big-endian
    }
  }

  std::array<uint8_t, 19> BuildAad(const FrameCryptoContext& ctx) const {
    // Simplified AAD: the addressing triple + priority. (The full 802.11
    // AAD also masks frame-control/sequence-control bits; the security
    // property exercised here — binding ciphertext to the addresses — is
    // identical.)
    std::array<uint8_t, 19> aad;
    auto it = std::copy(ctx.ta.bytes().begin(), ctx.ta.bytes().end(), aad.begin());
    it = std::copy(ctx.da.bytes().begin(), ctx.da.bytes().end(), it);
    it = std::copy(ctx.sa.bytes().begin(), ctx.sa.bytes().end(), it);
    *it = ctx.priority;
    return aad;
  }

  static constexpr size_t kHeaderSize = 8;  // PN0, PN1, rsvd, KeyID|ExtIV, PN2..PN5
  static constexpr size_t kMicSize = 8;

  Ccm ccm_;
  uint64_t pn_ = 0;
  uint64_t last_rx_pn_ = 0;
};

}  // namespace

std::unique_ptr<LinkCipher> CreateCipher(CipherSuite suite, std::span<const uint8_t> key) {
  switch (suite) {
    case CipherSuite::kOpen:
      return std::make_unique<OpenCipher>();
    case CipherSuite::kWep:
      return std::make_unique<WepCipher>(key);
    case CipherSuite::kTkip:
      return std::make_unique<TkipCipher>(key);
    case CipherSuite::kCcmp:
      return std::make_unique<CcmpCipher>(key);
  }
  return nullptr;
}

}  // namespace wlansim
