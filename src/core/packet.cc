#include "core/packet.h"

#include <cassert>
#include <new>

namespace wlansim {

thread_local uint64_t Packet::cow_copied_bytes_ = 0;

Packet::Buf* Packet::NewBuf(size_t capacity, bool zero) {
  assert(capacity <= UINT32_MAX);
  void* raw = ::operator new(sizeof(Buf) + capacity);
  Buf* buf = static_cast<Buf*>(raw);
  buf->refs = 1;
  buf->capacity = static_cast<uint32_t>(capacity);
  ClearFcsMemo(buf);
  if (zero && capacity > 0) {
    std::memset(DataOf(buf), 0, capacity);
  }
  return buf;
}

void Packet::Unref(Buf* buf) {
  if (--buf->refs == 0) {
    ::operator delete(static_cast<void*>(buf));
  }
}

Packet::Packet(size_t payload_size, size_t headroom)
    : buf_(NewBuf(headroom + payload_size, /*zero=*/true)),
      head_(static_cast<uint32_t>(headroom)),
      tail_(static_cast<uint32_t>(headroom + payload_size)) {}

Packet::Packet(std::span<const uint8_t> payload, size_t headroom)
    : buf_(NewBuf(headroom + payload.size(), /*zero=*/false)),
      head_(static_cast<uint32_t>(headroom)),
      tail_(static_cast<uint32_t>(headroom + payload.size())) {
  // memcpy from a null pointer is UB even for zero bytes: an empty span
  // (e.g. a NullData MSDU) has no storage to copy from.
  if (!payload.empty()) {
    std::memcpy(data() + head_, payload.data(), payload.size());
  }
}

Packet::Packet(const Packet& other)
    : buf_(other.buf_), head_(other.head_), tail_(other.tail_), meta_(other.meta_) {
  Ref(buf_);
}

Packet& Packet::operator=(const Packet& other) {
  if (this != &other) {
    Ref(other.buf_);  // ref before unref: safe under self-buffer aliasing
    Unref(buf_);
    buf_ = other.buf_;
    head_ = other.head_;
    tail_ = other.tail_;
    meta_ = other.meta_;
  }
  return *this;
}

Packet::Buf* Packet::EmptyBuf() {
  // Shared zero-capacity buffer for moved-from packets. The baseline ref
  // is owned by the thread itself, so Unref never reaches zero and never
  // frees it. A move must genuinely steal the buffer — leaving the source
  // co-owning it would make the destination look shared and trigger a
  // phantom copy-on-write fault on its next mutation.
  thread_local Buf empty{/*refs=*/1, /*capacity=*/0, /*fcs_head=*/0, /*fcs_tail=*/0};
  ++empty.refs;
  return &empty;
}

Packet::Packet(Packet&& other) noexcept
    : buf_(other.buf_), head_(other.head_), tail_(other.tail_), meta_(other.meta_) {
  other.buf_ = EmptyBuf();
  other.head_ = 0;
  other.tail_ = 0;
}

Packet& Packet::operator=(Packet&& other) noexcept {
  if (this != &other) {
    Unref(buf_);
    buf_ = other.buf_;
    head_ = other.head_;
    tail_ = other.tail_;
    meta_ = other.meta_;
    other.buf_ = EmptyBuf();
    other.head_ = 0;
    other.tail_ = 0;
  }
  return *this;
}

Packet::~Packet() { Unref(buf_); }

void Packet::Reserve(size_t need_head, size_t need_tail) {
  const size_t n = size();
  if (buf_->refs == 1 && head_ >= need_head && buf_->capacity - tail_ >= need_tail) {
    return;
  }
  // Clone the visible window into a private buffer with the requested
  // slack. Shared-buffer clones are the copy-on-write faults the hot-path
  // counters account for; an exclusive-but-too-small buffer is ordinary
  // growth (the old flat-vector packet paid it too) and is not counted.
  const bool shared = buf_->refs > 1;
  Buf* fresh = NewBuf(need_head + n + need_tail, /*zero=*/false);
  if (n > 0) {
    std::memcpy(DataOf(fresh) + need_head, data() + head_, n);
  }
  if (shared) {
    cow_copied_bytes_ += n;
  }
  Unref(buf_);
  buf_ = fresh;
  head_ = static_cast<uint32_t>(need_head);
  tail_ = static_cast<uint32_t>(need_head + n);
}

std::span<uint8_t> Packet::mutable_bytes() {
  Reserve(head_, buf_->capacity - tail_);  // detach-in-place when shared
  ClearFcsMemo(buf_);                      // the caller may write
  return {data() + head_, size()};
}

void Packet::AddHeader(std::span<const uint8_t> header) {
  if (buf_->refs > 1 || head_ < header.size()) {
    Reserve(header.size() + kDefaultHeadroom, buf_->capacity - tail_);
  }
  ClearFcsMemo(buf_);
  head_ -= static_cast<uint32_t>(header.size());
  std::memcpy(data() + head_, header.data(), header.size());
}

void Packet::RemoveHeader(size_t n) {
  assert(n <= size());
  head_ += static_cast<uint32_t>(n);
}

void Packet::AddTrailer(std::span<const uint8_t> trailer) {
  if (buf_->refs > 1 || buf_->capacity - tail_ < trailer.size()) {
    Reserve(head_, trailer.size() + kDefaultHeadroom);
  }
  ClearFcsMemo(buf_);
  std::memcpy(data() + tail_, trailer.data(), trailer.size());
  tail_ += static_cast<uint32_t>(trailer.size());
}

void Packet::RemoveTrailer(size_t n) {
  assert(n <= size());
  tail_ -= static_cast<uint32_t>(n);
}

void Packet::SetBytes(std::span<const uint8_t> content) {
  Buf* fresh = NewBuf(content.size(), /*zero=*/false);
  if (!content.empty()) {
    std::memcpy(DataOf(fresh), content.data(), content.size());
  }
  Unref(buf_);
  buf_ = fresh;
  head_ = 0;
  tail_ = static_cast<uint32_t>(content.size());
}

}  // namespace wlansim
