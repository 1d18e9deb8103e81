#include "results/binary_format.h"

#include <bit>
#include <stdexcept>

namespace wlansim {
namespace {

[[noreturn]] void ThrowTruncated(const char* what) {
  throw std::runtime_error(std::string("truncated binary results file: unexpected end of data "
                                       "while reading ") +
                           what);
}

}  // namespace

void PutVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutU16(std::string& out, uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void PutU32(std::string& out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

void PutF64(std::string& out, double v) {
  PutU64(out, std::bit_cast<uint64_t>(v));
}

void PutString(std::string& out, const std::string& s) {
  PutVarint(out, s.size());
  out.append(s);
}

const char* ByteReader::Need(size_t n) {
  if (size_ - pos_ < n) {
    ThrowTruncated("a fixed-width field");
  }
  const char* at = data_ + pos_;
  pos_ += n;
  return at;
}

uint64_t ByteReader::GetVarint() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= size_) {
      ThrowTruncated("a varint");
    }
    const uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      return v;
    }
  }
  throw std::runtime_error("corrupt binary results file: varint longer than 64 bits");
}

uint8_t ByteReader::GetU8() {
  return static_cast<uint8_t>(*Need(1));
}

uint16_t ByteReader::GetU16() {
  const char* p = Need(2);
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               (static_cast<uint16_t>(static_cast<uint8_t>(p[1])) << 8));
}

uint32_t ByteReader::GetU32() {
  const char* p = Need(4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t ByteReader::GetU64() {
  const char* p = Need(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

double ByteReader::GetF64() {
  return std::bit_cast<double>(GetU64());
}

std::string ByteReader::GetString() {
  const uint64_t n = GetVarint();
  if (size_ - pos_ < n) {
    ThrowTruncated("a string");
  }
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

ByteReader ByteReader::GetRange(size_t n) {
  if (size_ - pos_ < n) {
    ThrowTruncated("a chunk payload");
  }
  ByteReader range(data_ + pos_, n);
  pos_ += n;
  return range;
}

namespace {

// A double is delta-encodable only when int64 round-trips its exact bit
// pattern: -0.0, NaNs, fractions and >2^53 magnitudes all fail the bitwise
// check and fall back to raw64.
bool IntegralBits(uint64_t bits, int64_t* out) {
  const double v = std::bit_cast<double>(bits);
  if (!(v >= -9007199254740992.0 && v <= 9007199254740992.0)) {
    return false;  // also rejects NaN
  }
  const int64_t i = static_cast<int64_t>(v);
  if (std::bit_cast<uint64_t>(static_cast<double>(i)) != bits) {
    return false;
  }
  *out = i;
  return true;
}

void PutChunk(std::string& out, ChunkEncoding encoding, const std::string& payload) {
  out.push_back(static_cast<char>(encoding));
  PutVarint(out, payload.size());
  out.append(payload);
}

ChunkEncoding GetChunkHeader(ByteReader& in, ByteReader* payload) {
  const uint8_t tag = in.GetU8();
  if (tag > static_cast<uint8_t>(ChunkEncoding::kRaw64)) {
    throw std::runtime_error("corrupt binary results file: unknown chunk encoding " +
                             std::to_string(tag));
  }
  const uint64_t payload_len = in.GetVarint();
  *payload = in.GetRange(payload_len);
  return static_cast<ChunkEncoding>(tag);
}

}  // namespace

void EncodeScalarChunk(std::string& out, const double* values, size_t n) {
  std::vector<uint64_t> bits(n);
  for (size_t i = 0; i < n; ++i) {
    bits[i] = std::bit_cast<uint64_t>(values[i]);
  }
  bool all_equal = n > 0;
  for (size_t i = 1; i < n && all_equal; ++i) {
    all_equal = bits[i] == bits[0];
  }
  std::vector<int64_t> integral(n);
  bool all_integral = true;
  for (size_t i = 0; i < n && all_integral; ++i) {
    all_integral = IntegralBits(bits[i], &integral[i]);
  }

  std::string payload;
  if (all_equal) {
    PutU64(payload, bits[0]);
    PutChunk(out, ChunkEncoding::kConstant, payload);
  } else if (all_integral) {
    int64_t prev = 0;
    for (size_t i = 0; i < n; ++i) {
      PutVarint(payload, ZigzagEncode(integral[i] - prev));
      prev = integral[i];
    }
    PutChunk(out, ChunkEncoding::kIntDelta, payload);
  } else {
    payload.reserve(8 * n);
    for (size_t i = 0; i < n; ++i) {
      PutU64(payload, bits[i]);
    }
    PutChunk(out, ChunkEncoding::kRaw64, payload);
  }
}

void DecodeScalarChunk(ByteReader& in, size_t n, std::vector<double>* out) {
  ByteReader payload(nullptr, 0);
  const ChunkEncoding encoding = GetChunkHeader(in, &payload);
  out->clear();
  out->reserve(n);
  switch (encoding) {
    case ChunkEncoding::kConstant: {
      const double v = payload.GetF64();
      out->assign(n, v);
      break;
    }
    case ChunkEncoding::kIntDelta: {
      int64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        prev += ZigzagDecode(payload.GetVarint());
        out->push_back(static_cast<double>(prev));
      }
      break;
    }
    case ChunkEncoding::kRaw64: {
      for (size_t i = 0; i < n; ++i) {
        out->push_back(payload.GetF64());
      }
      break;
    }
  }
  if (payload.remaining() != 0) {
    throw std::runtime_error("corrupt binary results file: chunk payload longer than its "
                             "declared row count");
  }
}

void EncodeU64Chunk(std::string& out, const uint64_t* values, size_t n) {
  // Unsigned counts always fit one of two exact encodings: a constant, or
  // zigzag varints of the wrapping int64 deltas (two's-complement wraparound
  // cancels on decode, so even full-range u64 values round-trip exactly).
  bool all_equal = n > 0;
  for (size_t i = 1; i < n && all_equal; ++i) {
    all_equal = values[i] == values[0];
  }
  std::string payload;
  if (all_equal) {
    PutU64(payload, values[0]);
    PutChunk(out, ChunkEncoding::kConstant, payload);
    return;
  }
  uint64_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    PutVarint(payload, ZigzagEncode(static_cast<int64_t>(values[i] - prev)));
    prev = values[i];
  }
  PutChunk(out, ChunkEncoding::kIntDelta, payload);
}

void DecodeU64Chunk(ByteReader& in, size_t n, std::vector<uint64_t>* out) {
  ByteReader payload(nullptr, 0);
  const ChunkEncoding encoding = GetChunkHeader(in, &payload);
  out->clear();
  out->reserve(n);
  switch (encoding) {
    case ChunkEncoding::kConstant: {
      const uint64_t v = payload.GetU64();
      out->assign(n, v);
      break;
    }
    case ChunkEncoding::kIntDelta: {
      uint64_t prev = 0;
      for (size_t i = 0; i < n; ++i) {
        prev += static_cast<uint64_t>(ZigzagDecode(payload.GetVarint()));
        out->push_back(prev);
      }
      break;
    }
    case ChunkEncoding::kRaw64: {
      for (size_t i = 0; i < n; ++i) {
        out->push_back(payload.GetU64());
      }
      break;
    }
  }
  if (payload.remaining() != 0) {
    throw std::runtime_error("corrupt binary results file: chunk payload longer than its "
                             "declared row count");
  }
}

void EncodeBins(std::string& out, const uint64_t* bins, size_t n) {
  size_t i = 0;
  while (i < n) {
    if (bins[i] == 0) {
      size_t run = 1;
      while (i + run < n && bins[i + run] == 0) {
        ++run;
      }
      out.push_back(0);
      PutVarint(out, run);
      i += run;
    } else {
      PutVarint(out, bins[i]);
      ++i;
    }
  }
}

void DecodeBins(ByteReader& in, size_t n, std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(n);
  while (out->size() < n) {
    const uint64_t v = in.GetVarint();
    if (v == 0) {
      const uint64_t run = in.GetVarint();
      if (run == 0 || out->size() + run > n) {
        throw std::runtime_error("corrupt binary results file: histogram zero-run overruns "
                                 "its bin count");
      }
      out->insert(out->end(), run, 0);
    } else {
      out->push_back(v);
    }
  }
}

void EncodeFileHeader(std::string& out, const BinaryFileHeader& header) {
  PutU32(out, kBinaryFileMagic);
  PutU16(out, kBinaryFormatVersion);
  out.push_back(static_cast<char>(header.kind));
  out.push_back(static_cast<char>(header.streamed ? 1 : 0));
  PutU64(out, header.n_groups);
  PutU64(out, header.base_seed);
  PutU64(out, header.replications);
  PutString(out, header.scenario);
  PutVarint(out, header.param_keys.size());
  for (const std::string& key : header.param_keys) {
    PutString(out, key);
  }
}

BinaryFileHeader DecodeFileHeader(ByteReader& in) {
  if (in.GetU32() != kBinaryFileMagic) {
    throw std::runtime_error("not a wlansim binary results file (bad magic)");
  }
  const uint16_t version = in.GetU16();
  if (version != kBinaryFormatVersion) {
    throw std::runtime_error("unsupported binary results format version " +
                             std::to_string(version) + " (this build reads version " +
                             std::to_string(kBinaryFormatVersion) + ")");
  }
  BinaryFileHeader header;
  const uint8_t kind = in.GetU8();
  if (kind > 1) {
    throw std::runtime_error("corrupt binary results file: unknown file kind " +
                             std::to_string(kind));
  }
  header.kind = static_cast<BinaryFileKind>(kind);
  header.streamed = in.GetU8() != 0;
  header.n_groups = in.GetU64();
  header.base_seed = in.GetU64();
  header.replications = in.GetU64();
  header.scenario = in.GetString();
  const uint64_t n_keys = in.GetVarint();
  header.param_keys.reserve(n_keys);
  for (uint64_t i = 0; i < n_keys; ++i) {
    header.param_keys.push_back(in.GetString());
  }
  return header;
}

void EncodeGroupHeader(std::string& out, const BinaryGroupHeader& header) {
  PutU64(out, header.point_index);
  PutU64(out, header.point_seed);
  PutVarint(out, header.param_values.size());
  for (const std::string& value : header.param_values) {
    PutString(out, value);
  }
  PutU64(out, header.n_rows);
  PutVarint(out, header.scalar_names.size());
  for (const std::string& name : header.scalar_names) {
    PutString(out, name);
  }
  PutVarint(out, header.dist_names.size());
  for (const std::string& name : header.dist_names) {
    PutString(out, name);
  }
  for (const DistGeometry& geometry : header.dist_geometries) {
    PutF64(out, geometry.lo);
    PutF64(out, geometry.bin_width);
    PutU64(out, geometry.n_bins);
  }
}

BinaryGroupHeader DecodeGroupHeader(ByteReader& in) {
  BinaryGroupHeader header;
  header.point_index = in.GetU64();
  header.point_seed = in.GetU64();
  const uint64_t n_params = in.GetVarint();
  header.param_values.reserve(n_params);
  for (uint64_t i = 0; i < n_params; ++i) {
    header.param_values.push_back(in.GetString());
  }
  header.n_rows = in.GetU64();
  const uint64_t n_scalars = in.GetVarint();
  header.scalar_names.reserve(n_scalars);
  for (uint64_t i = 0; i < n_scalars; ++i) {
    header.scalar_names.push_back(in.GetString());
    // Writers emit a record's metric map in key order; replaying rows as
    // records (export, online aggregation) relies on it.
    if (i > 0 && header.scalar_names[i - 1] >= header.scalar_names[i]) {
      throw std::runtime_error("corrupt binary results file: scalar column names not ascending");
    }
  }
  const uint64_t n_dists = in.GetVarint();
  header.dist_names.reserve(n_dists);
  for (uint64_t i = 0; i < n_dists; ++i) {
    header.dist_names.push_back(in.GetString());
  }
  header.dist_geometries.reserve(n_dists);
  for (uint64_t i = 0; i < n_dists; ++i) {
    DistGeometry geometry;
    geometry.lo = in.GetF64();
    geometry.bin_width = in.GetF64();
    geometry.n_bins = in.GetU64();
    header.dist_geometries.push_back(geometry);
  }
  return header;
}

}  // namespace wlansim
