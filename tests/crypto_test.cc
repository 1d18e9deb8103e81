// Crypto substrate tests: published vectors (CRC-32, RC4, AES FIPS-197,
// Michael 802.11i), differential checks of the table-driven CRC-32 and AES
// against byte-wise reference implementations kept here as oracles, CCM
// properties, TKIP mixing properties, and full cipher-suite round trips with
// tamper detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "core/random.h"
#include "crypto/aes.h"
#include "crypto/ccm.h"
#include "crypto/cipher_suite.h"
#include "crypto/crc32.h"
#include "crypto/michael.h"
#include "crypto/rc4.h"
#include "crypto/tkip.h"

namespace wlansim {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<int> list) {
  std::vector<uint8_t> v;
  for (int x : list) {
    v.push_back(static_cast<uint8_t>(x));
  }
  return v;
}

std::vector<uint8_t> FromHex(const char* hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; hex[i] != 0 && hex[i + 1] != 0; i += 2) {
    auto nib = [](char c) -> uint8_t {
      if (c >= '0' && c <= '9') return static_cast<uint8_t>(c - '0');
      if (c >= 'a' && c <= 'f') return static_cast<uint8_t>(c - 'a' + 10);
      return static_cast<uint8_t>(c - 'A' + 10);
    };
    out.push_back(static_cast<uint8_t>((nib(hex[i]) << 4) | nib(hex[i + 1])));
  }
  return out;
}

// --- CRC-32 -------------------------------------------------------------------

TEST(Crc32, StandardCheckValue) {
  // The canonical CRC-32 check: CRC("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(Crc32(std::span(reinterpret_cast<const uint8_t*>(s), 9)), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(Crc32({}), 0x00000000u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<uint8_t> data(1024);
  std::iota(data.begin(), data.end(), 0);
  Crc32Builder b;
  b.Update(std::span(data.data(), 100));
  b.Update(std::span(data.data() + 100, 924));
  EXPECT_EQ(b.Finalize(), Crc32(data));
}

TEST(Crc32, SingleBitFlipChangesValue) {
  std::vector<uint8_t> data(64, 0x55);
  const uint32_t base = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data), base) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

// Byte-wise reference CRC-32 (one table lookup per byte), the oracle for the
// library's slice-by-8 implementation.
uint32_t ReferenceCrc32(std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = 0xFFFFFFFFu;
  for (uint8_t b : data) {
    c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  return v;
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  Rng rng(321);
  const auto data = RandomBytes(rng, 300 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const std::span<const uint8_t> window(data.data() + offset, len);
      ASSERT_EQ(Crc32(window), ReferenceCrc32(window)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, BuilderSplitAtEveryPointMatchesReference) {
  Rng rng(654);
  const auto data = RandomBytes(rng, 300);
  const uint32_t want = ReferenceCrc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    // Span | span.
    Crc32Builder spans;
    spans.Update(std::span(data.data(), split));
    spans.Update(std::span(data.data() + split, data.size() - split));
    ASSERT_EQ(spans.Finalize(), want) << "split " << split;

    // Up to three single bytes at the split, then the rest as a span.
    Crc32Builder mixed;
    mixed.Update(std::span(data.data(), split));
    size_t pos = split;
    for (; pos < data.size() && pos < split + 3; ++pos) {
      mixed.Update(data[pos]);
    }
    mixed.Update(std::span(data.data() + pos, data.size() - pos));
    ASSERT_EQ(mixed.Finalize(), want) << "split " << split;
  }
}

// --- RC4 ----------------------------------------------------------------------

TEST(Rc4, WikipediaVectorKey) {
  // RC4("Key", "Plaintext") = BBF316E8D940AF0AD3.
  const char* key = "Key";
  std::vector<uint8_t> data(reinterpret_cast<const uint8_t*>("Plaintext"),
                            reinterpret_cast<const uint8_t*>("Plaintext") + 9);
  Rc4 rc4(std::span(reinterpret_cast<const uint8_t*>(key), 3));
  rc4.Process(data);
  EXPECT_EQ(data, FromHex("BBF316E8D940AF0AD3"));
}

TEST(Rc4, WikipediaVectorWiki) {
  // RC4("Wiki", "pedia") = 1021BF0420.
  const char* key = "Wiki";
  std::vector<uint8_t> data(reinterpret_cast<const uint8_t*>("pedia"),
                            reinterpret_cast<const uint8_t*>("pedia") + 5);
  Rc4 rc4(std::span(reinterpret_cast<const uint8_t*>(key), 4));
  rc4.Process(data);
  EXPECT_EQ(data, FromHex("1021BF0420"));
}

TEST(Rc4, WikipediaVectorSecret) {
  // RC4("Secret", "Attack at dawn") = 45A01F645FC35B383552544B9BF5.
  const char* key = "Secret";
  const char* pt = "Attack at dawn";
  std::vector<uint8_t> data(reinterpret_cast<const uint8_t*>(pt),
                            reinterpret_cast<const uint8_t*>(pt) + 14);
  Rc4 rc4(std::span(reinterpret_cast<const uint8_t*>(key), 6));
  rc4.Process(data);
  EXPECT_EQ(data, FromHex("45A01F645FC35B383552544B9BF5"));
}

TEST(Rc4, EncryptDecryptRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint8_t> key(static_cast<size_t>(rng.UniformInt(1, 32)));
    for (auto& b : key) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    std::vector<uint8_t> data(static_cast<size_t>(rng.UniformInt(0, 500)));
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    auto original = data;
    Rc4(key).Process(data);
    Rc4(key).Process(data);
    EXPECT_EQ(data, original);
  }
}

// --- AES-128 ------------------------------------------------------------------

TEST(Aes128, Fips197Vector) {
  const auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  const auto pt = FromHex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  Aes128 aes(std::span<const uint8_t, 16>(key.data(), 16));
  aes.EncryptBlock(std::span<const uint8_t, 16>(pt.data(), 16), std::span<uint8_t, 16>(ct, 16));
  EXPECT_EQ(std::vector<uint8_t>(ct, ct + 16), FromHex("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST(Aes128, Sp800_38aEcbVector) {
  const auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const auto pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  uint8_t ct[16];
  Aes128 aes(std::span<const uint8_t, 16>(key.data(), 16));
  aes.EncryptBlock(std::span<const uint8_t, 16>(pt.data(), 16), std::span<uint8_t, 16>(ct, 16));
  EXPECT_EQ(std::vector<uint8_t>(ct, ct + 16), FromHex("3ad77bb40d7a3660a89ecaf32466ef97"));
}

TEST(Aes128, InPlaceAliasingWorks) {
  const auto key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  auto block = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(std::span<const uint8_t, 16>(key.data(), 16));
  aes.EncryptBlock(std::span<const uint8_t, 16>(block.data(), 16),
                   std::span<uint8_t, 16>(block.data(), 16));
  EXPECT_EQ(block, FromHex("3ad77bb40d7a3660a89ecaf32466ef97"));
}

TEST(Aes128, DifferentKeysDifferentCiphertexts) {
  const auto pt = FromHex("00000000000000000000000000000000");
  auto key1 = FromHex("00000000000000000000000000000000");
  auto key2 = FromHex("00000000000000000000000000000001");
  uint8_t ct1[16];
  uint8_t ct2[16];
  Aes128(std::span<const uint8_t, 16>(key1.data(), 16))
      .EncryptBlock(std::span<const uint8_t, 16>(pt.data(), 16), std::span<uint8_t, 16>(ct1, 16));
  Aes128(std::span<const uint8_t, 16>(key2.data(), 16))
      .EncryptBlock(std::span<const uint8_t, 16>(pt.data(), 16), std::span<uint8_t, 16>(ct2, 16));
  EXPECT_NE(std::memcmp(ct1, ct2, 16), 0);
}

// Reference AES-128 encryption: the textbook FIPS-197 rounds (SubBytes,
// ShiftRows, MixColumns, AddRoundKey) on a byte-array state, the oracle for
// the library's T-table implementation. The S-box is derived here from the
// GF(2^8) inverse and affine map, independently of the library.
class ReferenceAes128 {
 public:
  explicit ReferenceAes128(std::span<const uint8_t, 16> key) {
    std::memcpy(round_keys_.data(), key.data(), 16);
    uint8_t rcon = 0x01;
    for (size_t i = 16; i < 176; i += 4) {
      uint8_t temp[4];
      std::memcpy(temp, round_keys_.data() + i - 4, 4);
      if (i % 16 == 0) {
        const uint8_t t0 = temp[0];
        temp[0] = static_cast<uint8_t>(Sbox()[temp[1]] ^ rcon);
        temp[1] = Sbox()[temp[2]];
        temp[2] = Sbox()[temp[3]];
        temp[3] = Sbox()[t0];
        rcon = Xtime(rcon);
      }
      for (size_t k = 0; k < 4; ++k) {
        round_keys_[i + k] = round_keys_[i + k - 16] ^ temp[k];
      }
    }
  }

  std::array<uint8_t, 16> EncryptBlock(std::span<const uint8_t, 16> in) const {
    std::array<uint8_t, 16> state;
    std::memcpy(state.data(), in.data(), 16);
    AddRoundKey(state, 0);
    for (size_t round = 1; round <= 9; ++round) {
      SubBytes(state);
      ShiftRows(state);
      MixColumns(state);
      AddRoundKey(state, round);
    }
    SubBytes(state);
    ShiftRows(state);
    AddRoundKey(state, 10);
    return state;
  }

 private:
  static uint8_t Xtime(uint8_t a) {
    return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1B : 0x00));
  }

  static uint8_t GfMul(uint8_t a, uint8_t b) {
    uint8_t p = 0;
    for (int i = 0; i < 8; ++i) {
      if (b & 1) {
        p ^= a;
      }
      a = Xtime(a);
      b >>= 1;
    }
    return p;
  }

  static const std::array<uint8_t, 256>& Sbox() {
    static const std::array<uint8_t, 256> sbox = [] {
      std::array<uint8_t, 256> t{};
      for (int i = 0; i < 256; ++i) {
        uint8_t inv = 0;  // 0 maps to 0; otherwise the unique b with i*b == 1
        for (int b = 1; i != 0 && b < 256; ++b) {
          if (GfMul(static_cast<uint8_t>(i), static_cast<uint8_t>(b)) == 1) {
            inv = static_cast<uint8_t>(b);
            break;
          }
        }
        uint8_t x = inv;
        uint8_t y = inv;
        for (int k = 0; k < 4; ++k) {
          y = static_cast<uint8_t>((y << 1) | (y >> 7));
          x ^= y;
        }
        t[static_cast<size_t>(i)] = x ^ 0x63;
      }
      return t;
    }();
    return sbox;
  }

  static void SubBytes(std::array<uint8_t, 16>& state) {
    for (auto& b : state) {
      b = Sbox()[b];
    }
  }

  // State is column-major: state[4*c + r] is row r, column c.
  static void ShiftRows(std::array<uint8_t, 16>& state) {
    uint8_t t = state[1];
    state[1] = state[5];
    state[5] = state[9];
    state[9] = state[13];
    state[13] = t;
    std::swap(state[2], state[10]);
    std::swap(state[6], state[14]);
    t = state[15];
    state[15] = state[11];
    state[11] = state[7];
    state[7] = state[3];
    state[3] = t;
  }

  static void MixColumns(std::array<uint8_t, 16>& state) {
    for (size_t c = 0; c < 4; ++c) {
      uint8_t* col = state.data() + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<uint8_t>(a0 ^ all ^ Xtime(a0 ^ a1));
      col[1] = static_cast<uint8_t>(a1 ^ all ^ Xtime(a1 ^ a2));
      col[2] = static_cast<uint8_t>(a2 ^ all ^ Xtime(a2 ^ a3));
      col[3] = static_cast<uint8_t>(a3 ^ all ^ Xtime(a3 ^ a0));
    }
  }

  void AddRoundKey(std::array<uint8_t, 16>& state, size_t round) const {
    for (size_t i = 0; i < 16; ++i) {
      state[i] ^= round_keys_[16 * round + i];
    }
  }

  std::array<uint8_t, 176> round_keys_{};
};

TEST(Aes128, ReferenceMatchesFips197Vector) {
  // Anchors the oracle itself before it judges the library.
  const auto key = FromHex("000102030405060708090a0b0c0d0e0f");
  const auto pt = FromHex("00112233445566778899aabbccddeeff");
  const auto ct = ReferenceAes128(std::span<const uint8_t, 16>(key.data(), 16))
                      .EncryptBlock(std::span<const uint8_t, 16>(pt.data(), 16));
  EXPECT_EQ(std::vector<uint8_t>(ct.begin(), ct.end()),
            FromHex("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST(Aes128, TTablesMatchReferenceOnRandomKeysAndBlocks) {
  Rng rng(2024);
  for (int trial = 0; trial < 10000; ++trial) {
    const auto key = RandomBytes(rng, 16);
    const auto pt = RandomBytes(rng, 16);
    const std::span<const uint8_t, 16> key16(key.data(), 16);
    const std::span<const uint8_t, 16> pt16(pt.data(), 16);
    std::array<uint8_t, 16> ct;
    Aes128(key16).EncryptBlock(pt16, ct);
    ASSERT_EQ(ct, ReferenceAes128(key16).EncryptBlock(pt16)) << "trial " << trial;
  }
}

// --- Michael ------------------------------------------------------------------

// The IEEE 802.11i Annex chained test vectors: each MIC is the key for the
// next message.
TEST(Michael, ChainedStandardVectors) {
  struct Step {
    const char* message;
    const char* mic_hex;
  };
  const Step steps[] = {
      {"", "82925c1ca1d130b8"},        {"M", "434721ca40639b3f"},
      {"Mi", "e8f9becae97e5d29"},      {"Mic", "90038fc6cf13c1db"},
      {"Mich", "d55e100510128986"},    {"Michael", "0a942b124ecaa546"},
  };
  std::vector<uint8_t> key(8, 0);
  for (const Step& step : steps) {
    const auto mic = Michael::Compute(
        std::span<const uint8_t, 8>(key.data(), 8),
        std::span(reinterpret_cast<const uint8_t*>(step.message), std::strlen(step.message)));
    EXPECT_EQ(std::vector<uint8_t>(mic.begin(), mic.end()), FromHex(step.mic_hex))
        << "message '" << step.message << "'";
    key.assign(mic.begin(), mic.end());
  }
}

TEST(Michael, MsduHeaderBindsAddresses) {
  std::vector<uint8_t> key(8, 0x11);
  std::vector<uint8_t> payload(32, 0x22);
  const auto mic1 = Michael::ComputeForMsdu(std::span<const uint8_t, 8>(key.data(), 8),
                                            MacAddress::FromId(1), MacAddress::FromId(2), 0,
                                            payload);
  const auto mic2 = Michael::ComputeForMsdu(std::span<const uint8_t, 8>(key.data(), 8),
                                            MacAddress::FromId(3), MacAddress::FromId(2), 0,
                                            payload);
  EXPECT_NE(mic1, mic2);
}

// --- CCM ----------------------------------------------------------------------

TEST(Ccm, Rfc3610Vector1) {
  // RFC 3610 packet vector #1: M=8, L=2.
  const auto key = FromHex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF");
  const auto nonce = FromHex("00000003020100A0A1A2A3A4A5");
  const auto aad = FromHex("0001020304050607");
  auto payload = FromHex("08090A0B0C0D0E0F101112131415161718191A1B1C1D1E");
  Ccm ccm(std::span<const uint8_t, 16>(key.data(), 16), 8, 2);
  const Ccm::Mic mic = ccm.Encrypt(nonce, aad, payload);
  EXPECT_EQ(payload, FromHex("588C979A61C663D2F066D0C2C0F989806D5F6B61DAC384"));
  EXPECT_EQ(std::vector<uint8_t>(mic.begin(), mic.begin() + 8), FromHex("17E8D12CFDF926E0"));
}

TEST(Ccm, Rfc3610Vector1Decrypts) {
  const auto key = FromHex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF");
  const auto nonce = FromHex("00000003020100A0A1A2A3A4A5");
  const auto aad = FromHex("0001020304050607");
  auto payload = FromHex("588C979A61C663D2F066D0C2C0F989806D5F6B61DAC384");
  const auto mic = FromHex("17E8D12CFDF926E0");
  Ccm ccm(std::span<const uint8_t, 16>(key.data(), 16), 8, 2);
  EXPECT_TRUE(ccm.Decrypt(nonce, aad, payload, payload, mic));
  EXPECT_EQ(payload, FromHex("08090A0B0C0D0E0F101112131415161718191A1B1C1D1E"));
}

TEST(Ccm, DecryptIntoFrontOfBufferStripsHeader) {
  // header(3) | ciphertext | MIC, decrypted into the front of the buffer in
  // one pass — the CCMP receive path's layout.
  const auto key = FromHex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF");
  const auto nonce = FromHex("00000003020100A0A1A2A3A4A5");
  const auto aad = FromHex("0001020304050607");
  auto frame = FromHex("AABBCC588C979A61C663D2F066D0C2C0F989806D5F6B61DAC38417E8D12CFDF926E0");
  const size_t n = frame.size() - 3 - 8;
  Ccm ccm(std::span<const uint8_t, 16>(key.data(), 16), 8, 2);
  EXPECT_TRUE(ccm.Decrypt(nonce, aad, std::span<const uint8_t>(frame.data() + 3, n),
                          std::span<uint8_t>(frame.data(), n),
                          std::span<const uint8_t>(frame.data() + 3 + n, 8)));
  frame.resize(n);
  EXPECT_EQ(frame, FromHex("08090A0B0C0D0E0F101112131415161718191A1B1C1D1E"));
}

TEST(Ccm, TamperedCiphertextFailsMic) {
  const auto key = FromHex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF");
  const auto nonce = FromHex("00000003020100A0A1A2A3A4A5");
  const auto aad = FromHex("0001020304050607");
  auto payload = FromHex("588C979A61C663D2F066D0C2C0F989806D5F6B61DAC384");
  auto mic = FromHex("17E8D12CFDF926E0");
  payload[5] ^= 0x80;
  Ccm ccm(std::span<const uint8_t, 16>(key.data(), 16), 8, 2);
  EXPECT_FALSE(ccm.Decrypt(nonce, aad, payload, payload, mic));
}

TEST(Ccm, TamperedAadFailsMic) {
  const auto key = FromHex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF");
  const auto nonce = FromHex("00000003020100A0A1A2A3A4A5");
  auto aad = FromHex("0001020304050607");
  auto payload = FromHex("588C979A61C663D2F066D0C2C0F989806D5F6B61DAC384");
  auto mic = FromHex("17E8D12CFDF926E0");
  aad[0] ^= 0x01;
  Ccm ccm(std::span<const uint8_t, 16>(key.data(), 16), 8, 2);
  EXPECT_FALSE(ccm.Decrypt(nonce, aad, payload, payload, mic));
}

TEST(Ccm, RoundTripRandomPayloads) {
  Rng rng(99);
  std::vector<uint8_t> key(16);
  for (auto& b : key) {
    b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  }
  Ccm ccm(std::span<const uint8_t, 16>(key.data(), 16), 8, 2);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<uint8_t> nonce(13);
    for (auto& b : nonce) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    std::vector<uint8_t> aad(static_cast<size_t>(rng.UniformInt(0, 30)));
    for (auto& b : aad) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    std::vector<uint8_t> payload(static_cast<size_t>(rng.UniformInt(0, 300)));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    auto original = payload;
    const Ccm::Mic mic = ccm.Encrypt(nonce, aad, payload);
    if (!original.empty()) {
      EXPECT_NE(payload, original);
    }
    EXPECT_TRUE(ccm.Decrypt(nonce, aad, payload, payload, std::span(mic.data(), 8)));
    EXPECT_EQ(payload, original);
  }
}

// --- TKIP mixing --------------------------------------------------------------

TEST(TkipMixer, DeterministicAndIvSensitive) {
  std::vector<uint8_t> tk(16, 0x5c);
  const MacAddress ta = MacAddress::FromId(7);
  const auto ttak1 = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16), ta, 100);
  const auto ttak2 = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16), ta, 100);
  EXPECT_EQ(ttak1, ttak2);
  const auto ttak3 = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16), ta, 101);
  EXPECT_NE(ttak1, ttak3);

  const auto k1 = TkipMixer::Phase2(ttak1, std::span<const uint8_t, 16>(tk.data(), 16), 1);
  const auto k2 = TkipMixer::Phase2(ttak1, std::span<const uint8_t, 16>(tk.data(), 16), 2);
  EXPECT_NE(k1, k2);
}

TEST(TkipMixer, WeakKeyByteAvoidance) {
  // RC4KEY[1] must always have bit 5 set and bit 7 clear.
  std::vector<uint8_t> tk(16, 0x3a);
  const MacAddress ta = MacAddress::FromId(9);
  const auto ttak = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16), ta, 500);
  for (uint32_t iv16 = 0; iv16 < 2048; iv16 += 37) {
    const auto key = TkipMixer::Phase2(ttak, std::span<const uint8_t, 16>(tk.data(), 16),
                                       static_cast<uint16_t>(iv16));
    EXPECT_EQ(key[1] & 0x20, 0x20);
    EXPECT_EQ(key[1] & 0x80, 0x00);
    EXPECT_EQ(key[0], static_cast<uint8_t>(iv16 >> 8));
    EXPECT_EQ(key[2], static_cast<uint8_t>(iv16 & 0xFF));
  }
}

TEST(TkipMixer, TransmitterAddressBindsKey) {
  std::vector<uint8_t> tk(16, 0x77);
  const auto t1 = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16),
                                    MacAddress::FromId(1), 42);
  const auto t2 = TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16),
                                    MacAddress::FromId(2), 42);
  EXPECT_NE(t1, t2);
}

// --- Cipher suites -------------------------------------------------------------

class CipherSuiteRoundTrip : public ::testing::TestWithParam<CipherSuite> {};

std::vector<uint8_t> KeyFor(CipherSuite suite) {
  switch (suite) {
    case CipherSuite::kWep:
      return std::vector<uint8_t>(13, 0x42);
    case CipherSuite::kTkip:
    case CipherSuite::kCcmp:
      return std::vector<uint8_t>(16, 0x42);
    case CipherSuite::kOpen:
      return {};
  }
  return {};
}

TEST_P(CipherSuiteRoundTrip, ProtectUnprotectRestoresPlaintext) {
  const CipherSuite suite = GetParam();
  auto tx = CreateCipher(suite, KeyFor(suite));
  auto rx = CreateCipher(suite, KeyFor(suite));
  FrameCryptoContext ctx;
  ctx.ta = MacAddress::FromId(1);
  ctx.da = MacAddress::FromId(2);
  ctx.sa = MacAddress::FromId(1);

  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    std::vector<uint8_t> body(static_cast<size_t>(rng.UniformInt(1, 1500)));
    for (auto& b : body) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    auto original = body;
    tx->Protect(ctx, body);
    EXPECT_EQ(body.size(), original.size() + CipherTotalOverheadBytes(suite));
    ASSERT_TRUE(rx->Unprotect(ctx, body)) << "packet " << i;
    EXPECT_EQ(body, original);
  }
}

TEST_P(CipherSuiteRoundTrip, OverheadMatchesDeclaration) {
  const CipherSuite suite = GetParam();
  auto tx = CreateCipher(suite, KeyFor(suite));
  FrameCryptoContext ctx;
  ctx.ta = MacAddress::FromId(1);
  ctx.da = MacAddress::FromId(2);
  ctx.sa = MacAddress::FromId(1);
  std::vector<uint8_t> body(100, 0xAA);
  tx->Protect(ctx, body);
  EXPECT_EQ(body.size(), 100 + CipherHeaderBytes(suite) + CipherTrailerBytes(suite));
}

INSTANTIATE_TEST_SUITE_P(AllSuites, CipherSuiteRoundTrip,
                         ::testing::Values(CipherSuite::kOpen, CipherSuite::kWep,
                                           CipherSuite::kTkip, CipherSuite::kCcmp),
                         [](const auto& info) { return ToString(info.param); });

TEST(CipherSuites, TamperedWepFrameFailsIcv) {
  auto tx = CreateCipher(CipherSuite::kWep, std::vector<uint8_t>(5, 0x11));
  auto rx = CreateCipher(CipherSuite::kWep, std::vector<uint8_t>(5, 0x11));
  FrameCryptoContext ctx;
  std::vector<uint8_t> body(64, 0x33);
  tx->Protect(ctx, body);
  body[20] ^= 0x40;
  EXPECT_FALSE(rx->Unprotect(ctx, body));
}

TEST(CipherSuites, TamperedCcmpFrameFailsMic) {
  auto tx = CreateCipher(CipherSuite::kCcmp, std::vector<uint8_t>(16, 0x11));
  auto rx = CreateCipher(CipherSuite::kCcmp, std::vector<uint8_t>(16, 0x11));
  FrameCryptoContext ctx;
  ctx.ta = MacAddress::FromId(1);
  std::vector<uint8_t> body(64, 0x33);
  tx->Protect(ctx, body);
  body[20] ^= 0x40;
  EXPECT_FALSE(rx->Unprotect(ctx, body));
}

TEST(CipherSuites, CcmpReplayIsRejected) {
  auto tx = CreateCipher(CipherSuite::kCcmp, std::vector<uint8_t>(16, 0x11));
  auto rx = CreateCipher(CipherSuite::kCcmp, std::vector<uint8_t>(16, 0x11));
  FrameCryptoContext ctx;
  ctx.ta = MacAddress::FromId(1);
  std::vector<uint8_t> body(64, 0x33);
  tx->Protect(ctx, body);
  auto replay = body;
  EXPECT_TRUE(rx->Unprotect(ctx, body));
  EXPECT_FALSE(rx->Unprotect(ctx, replay));  // same PN twice
}

TEST(CipherSuites, WrongKeyFailsDecryption) {
  for (CipherSuite suite : {CipherSuite::kWep, CipherSuite::kTkip, CipherSuite::kCcmp}) {
    auto tx = CreateCipher(suite, KeyFor(suite));
    auto wrong_key = KeyFor(suite);
    wrong_key[0] ^= 0xFF;
    auto rx = CreateCipher(suite, wrong_key);
    FrameCryptoContext ctx;
    ctx.ta = MacAddress::FromId(1);
    ctx.da = MacAddress::FromId(2);
    ctx.sa = MacAddress::FromId(1);
    std::vector<uint8_t> body(128, 0x5A);
    tx->Protect(ctx, body);
    EXPECT_FALSE(rx->Unprotect(ctx, body)) << ToString(suite);
  }
}

TEST(CipherSuites, TkipMicBindsSourceAddress) {
  auto tx = CreateCipher(CipherSuite::kTkip, KeyFor(CipherSuite::kTkip));
  auto rx = CreateCipher(CipherSuite::kTkip, KeyFor(CipherSuite::kTkip));
  FrameCryptoContext tx_ctx;
  tx_ctx.ta = MacAddress::FromId(1);
  tx_ctx.da = MacAddress::FromId(2);
  tx_ctx.sa = MacAddress::FromId(1);
  std::vector<uint8_t> body(64, 0x77);
  tx->Protect(tx_ctx, body);
  // A forwarder claiming a different SA must fail the Michael check.
  FrameCryptoContext rx_ctx = tx_ctx;
  rx_ctx.sa = MacAddress::FromId(9);
  EXPECT_FALSE(rx->Unprotect(rx_ctx, body));
}

}  // namespace
}  // namespace wlansim
