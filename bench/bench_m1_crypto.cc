// M1 — Crypto microbenchmarks, on the in-tree perf harness.
//
// Per-byte / per-packet cost of every primitive and of full MPDU
// encapsulation per suite. Expected shape: CRC32 ≫ RC4 ≫ AES (software)
// in byte rate; CCM costs ~2 AES passes per block; Michael is cheap but
// dominates TKIP's non-RC4 overhead; TKIP per-packet mixing shows up at
// small packets.
//
// Byte-oriented benches return bytes processed, so ns/item reads as
// nanoseconds per byte; the per-packet mixing benches return operations.

#include <cstdint>
#include <vector>

#include "bench/perf_harness.h"
#include "crypto/aes.h"
#include "crypto/ccm.h"
#include "crypto/cipher_suite.h"
#include "crypto/crc32.h"
#include "crypto/michael.h"
#include "crypto/rc4.h"
#include "crypto/tkip.h"

namespace wlansim {
namespace {

std::vector<uint8_t> MakeBuffer(size_t n) {
  std::vector<uint8_t> buf(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  return buf;
}

// Folding every result into a sink defeats dead-code elimination the way
// benchmark::DoNotOptimize used to; the sink is printed at exit, so the
// compiler cannot discard the work.
uint64_t g_sink = 0;

void BenchCrc32(PerfHarness& harness, size_t bytes) {
  harness.Bench("crc32/" + std::to_string(bytes) + "B", [bytes] {
    const auto buf = MakeBuffer(bytes);
    const uint64_t iters = bytes >= 1024 ? 4096 : 65536;
    for (uint64_t i = 0; i < iters; ++i) {
      g_sink += Crc32(buf);
    }
    return iters * bytes;
  });
}

void BenchRc4(PerfHarness& harness, size_t bytes) {
  harness.Bench("rc4/" + std::to_string(bytes) + "B", [bytes] {
    auto buf = MakeBuffer(bytes);
    const std::vector<uint8_t> key(16, 0x5C);
    const uint64_t iters = bytes >= 1024 ? 2048 : 16384;
    for (uint64_t i = 0; i < iters; ++i) {
      Rc4 rc4(key);
      rc4.Process(buf);
      g_sink += buf[0];
    }
    return iters * bytes;
  });
}

void BenchAesBlock(PerfHarness& harness) {
  harness.Bench("aes_block", [] {
    const auto key = MakeBuffer(16);
    Aes128 aes(std::span<const uint8_t, 16>(key.data(), 16));
    uint8_t block[16] = {};
    const uint64_t iters = 262144;
    for (uint64_t i = 0; i < iters; ++i) {
      aes.EncryptBlock(std::span<const uint8_t, 16>(block, 16),
                       std::span<uint8_t, 16>(block, 16));
    }
    g_sink += block[0];
    return iters * 16;
  });
}

void BenchCcm(PerfHarness& harness, size_t bytes) {
  harness.Bench("ccm_encrypt/" + std::to_string(bytes) + "B", [bytes] {
    const auto key = MakeBuffer(16);
    Ccm ccm(std::span<const uint8_t, 16>(key.data(), 16), 8, 2);
    auto payload = MakeBuffer(bytes);
    const auto nonce = MakeBuffer(13);
    const auto aad = MakeBuffer(22);
    const uint64_t iters = bytes >= 1024 ? 512 : 8192;
    for (uint64_t i = 0; i < iters; ++i) {
      g_sink += ccm.Encrypt(nonce, aad, payload)[0];
    }
    return iters * bytes;
  });
}

void BenchMichael(PerfHarness& harness, size_t bytes) {
  harness.Bench("michael_mic/" + std::to_string(bytes) + "B", [bytes] {
    const auto key = MakeBuffer(8);
    const auto payload = MakeBuffer(bytes);
    const uint64_t iters = bytes >= 1024 ? 8192 : 65536;
    for (uint64_t i = 0; i < iters; ++i) {
      g_sink += Michael::Compute(std::span<const uint8_t, 8>(key.data(), 8), payload)[0];
    }
    return iters * bytes;
  });
}

void BenchTkipMixing(PerfHarness& harness) {
  harness.Bench("tkip_phase1", [] {
    const auto tk = MakeBuffer(16);
    const MacAddress ta = MacAddress::FromId(7);
    const uint64_t iters = 262144;
    for (uint64_t i = 0; i < iters; ++i) {
      g_sink += TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16), ta,
                                  static_cast<uint32_t>(i))[0];
    }
    return iters;
  });
  harness.Bench("tkip_phase2", [] {
    const auto tk = MakeBuffer(16);
    const auto ttak =
        TkipMixer::Phase1(std::span<const uint8_t, 16>(tk.data(), 16), MacAddress::FromId(7), 1);
    const uint64_t iters = 262144;
    for (uint64_t i = 0; i < iters; ++i) {
      g_sink += TkipMixer::Phase2(ttak, std::span<const uint8_t, 16>(tk.data(), 16),
                                  static_cast<uint16_t>(i))[0];
    }
    return iters;
  });
}

void BenchSuiteProtect(PerfHarness& harness, CipherSuite suite, size_t payload) {
  harness.Bench(std::string("protect_") + ToString(suite) + "/" + std::to_string(payload) + "B",
                [suite, payload] {
                  std::vector<uint8_t> key(suite == CipherSuite::kWep ? 13 : 16, 0x42);
                  auto cipher = CreateCipher(suite, key);
                  FrameCryptoContext ctx;
                  ctx.ta = MacAddress::FromId(1);
                  ctx.da = MacAddress::FromId(2);
                  ctx.sa = MacAddress::FromId(1);
                  const auto original = MakeBuffer(payload);
                  const uint64_t iters = payload >= 1024 ? 1024 : 8192;
                  for (uint64_t i = 0; i < iters; ++i) {
                    std::vector<uint8_t> body = original;
                    cipher->Protect(ctx, body);
                    g_sink += body.size();
                  }
                  return iters * payload;
                });
}

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "wlansim_bench_m1");
  if (!args.ok) {
    return 1;
  }
  PerfHarness harness("M1: crypto primitives (ns/item = ns/byte for *B benches)", args);
  for (size_t bytes : {size_t{64}, size_t{1500}}) {
    BenchCrc32(harness, bytes);
    BenchRc4(harness, bytes);
    BenchCcm(harness, bytes);
    BenchMichael(harness, bytes);
  }
  BenchAesBlock(harness);
  BenchTkipMixing(harness);
  for (CipherSuite suite : {CipherSuite::kOpen, CipherSuite::kWep, CipherSuite::kTkip,
                            CipherSuite::kCcmp}) {
    for (size_t payload : {size_t{64}, size_t{1500}}) {
      BenchSuiteProtect(harness, suite, payload);
    }
  }
  const int rc = harness.Finish();
  std::printf("(checksum %llu)\n", static_cast<unsigned long long>(g_sink));
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
