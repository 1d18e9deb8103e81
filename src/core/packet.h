// Simulated packet: a copy-on-write view over a refcounted immutable byte
// buffer, with cheap header prepend/strip plus side-band metadata that
// models out-of-band driver state (flow ids, timestamps) without being
// serialized on the air.
//
// Copy semantics: copying a Packet shares the underlying buffer (one
// refcount bump, no byte copy) and duplicates only the per-instance view
// state — the [head, tail) window and the PacketMeta. This is
// what makes the channel's per-receiver fan-out zero-copy: every receiver
// of a transmission holds a view of the same immutable buffer. Byte
// mutation (AddHeader / AddTrailer / SetBytes / mutable_bytes) detaches —
// clones the visible bytes into a private buffer — only when the buffer is
// shared, so a mutation through one view is never observable through a
// sibling. RemoveHeader / RemoveTrailer only move the per-instance window
// offsets and therefore never detach: the receive-side MPDU strip stays
// zero-copy even on a shared buffer.
//
// FCS memo: the buffer header remembers one [head, tail) window whose
// frame check sequence has passed (ParseMpdu records it), so the other
// receivers of a shared transmission skip re-hashing the same bytes. A
// shared buffer is immutable, so the verdict stays true for every view of
// that window. Writes to an exclusive buffer happen in place, so
// mutable_bytes / AddHeader / AddTrailer clear the memo; a fresh buffer
// (construction, SetBytes, a copy-on-write detach or growth) starts with
// none.
//
// The refcount is intentionally non-atomic: a Packet never crosses thread
// boundaries (each campaign replication owns its Simulator, Network and
// every packet inside them), matching the threading model of the rest of
// the per-replication state.

#ifndef WLANSIM_CORE_PACKET_H_
#define WLANSIM_CORE_PACKET_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "core/time.h"

namespace wlansim {

// Out-of-band metadata carried alongside the bytes. Not part of the frame,
// and per-view: each copy of a packet mutates its own meta (the MAC bumps
// `retries` on its instance without detaching or disturbing siblings).
struct PacketMeta {
  uint32_t flow_id = 0;     // application flow identifier
  uint32_t app_seq = 0;     // application-level sequence number
  Time created;             // when the application generated the payload
  Time mac_enqueued;        // when the MAC queue accepted the frame
  uint8_t retries = 0;      // MAC retransmission count (filled by the MAC)
  uint8_t priority = 0;     // 802.1D user priority (QoS class)
};

class Packet {
 public:
  Packet() : Packet(0) {}

  // Creates a packet with `payload_size` zero bytes of payload.
  explicit Packet(size_t payload_size, size_t headroom = kDefaultHeadroom);

  // Creates a packet holding a copy of `payload`.
  explicit Packet(std::span<const uint8_t> payload, size_t headroom = kDefaultHeadroom);

  // Copies share the buffer (refcount bump) and keep the source's meta;
  // moves steal the view.
  Packet(const Packet& other);
  Packet& operator=(const Packet& other);
  Packet(Packet&& other) noexcept;
  Packet& operator=(Packet&& other) noexcept;
  ~Packet();

  size_t size() const { return tail_ - head_; }
  bool empty() const { return size() == 0; }

  std::span<const uint8_t> bytes() const { return {data() + head_, size()}; }

  // Mutable access to the visible bytes; detaches first when shared.
  std::span<uint8_t> mutable_bytes();

  // Prepends `header` (copies). Grows headroom if exhausted; detaches when
  // shared.
  void AddHeader(std::span<const uint8_t> header);

  // Strips `n` bytes from the front. Requires n <= size(). Offset-only:
  // never detaches or copies.
  void RemoveHeader(size_t n);

  // Appends `trailer` at the end. Grows tailroom if exhausted; detaches
  // when shared.
  void AddTrailer(std::span<const uint8_t> trailer);

  // Strips `n` bytes from the end. Requires n <= size(). Offset-only:
  // never detaches or copies.
  void RemoveTrailer(size_t n);

  // Replaces the whole content (used by ciphers that re-frame the body).
  // Always re-frames into a private exact-fit buffer.
  void SetBytes(std::span<const uint8_t> content);

  PacketMeta& meta() { return meta_; }
  const PacketMeta& meta() const { return meta_; }

  // --- FCS memo ---------------------------------------------------------------

  // True when this view's window was marked verified on its buffer and no
  // write has touched the buffer since.
  bool FcsVerified() const {
    return buf_->fcs_tail != 0 && buf_->fcs_head == head_ && buf_->fcs_tail == tail_;
  }

  // Records that this view's window passed the FCS check. Marks the shared
  // buffer, so sibling views of the same window see it too.
  void MarkFcsVerified() {
    buf_->fcs_head = head_;
    buf_->fcs_tail = tail_;
  }

  // --- CoW introspection (tests and hot-path counters) ----------------------

  // True when both packets view the same underlying buffer.
  bool SharesBufferWith(const Packet& other) const { return buf_ == other.buf_; }

  // Number of views holding this packet's buffer.
  uint32_t buffer_refcount() const { return buf_->refs; }

  // Bytes deep-copied on this thread because a *shared* buffer had to be
  // detached (CoW faults). Monotonic; callers measure deltas. A zero delta
  // across a region proves the region performed no copy-on-write work —
  // the channel uses this to account SendStats::bytes_copied per fan-out.
  static uint64_t CowCopiedBytes() { return cow_copied_bytes_; }

 private:
  static constexpr size_t kDefaultHeadroom = 64;

  // Intrusively refcounted buffer header; the bytes are co-allocated
  // immediately after it (one allocation per buffer). [fcs_head, fcs_tail)
  // is the FCS memo; fcs_tail == 0 means none.
  struct Buf {
    uint32_t refs;
    uint32_t capacity;
    uint32_t fcs_head;
    uint32_t fcs_tail;
  };

  static void ClearFcsMemo(Buf* buf) {
    buf->fcs_head = 0;
    buf->fcs_tail = 0;
  }

  static Buf* NewBuf(size_t capacity, bool zero);
  static Buf* EmptyBuf();
  static void Ref(Buf* buf) { ++buf->refs; }
  static void Unref(Buf* buf);

  static uint8_t* DataOf(Buf* buf) { return reinterpret_cast<uint8_t*>(buf + 1); }
  uint8_t* data() const { return DataOf(buf_); }

  // Ensures exclusive ownership with at least `need_head` bytes of headroom
  // and `need_tail` bytes of tailroom around the visible window, cloning
  // the visible bytes when the buffer is shared or too small.
  void Reserve(size_t need_head, size_t need_tail);

  Buf* buf_;       // never null
  uint32_t head_;  // visible window [head_, tail_) within the buffer
  uint32_t tail_;
  PacketMeta meta_;

  static thread_local uint64_t cow_copied_bytes_;
};

}  // namespace wlansim

#endif  // WLANSIM_CORE_PACKET_H_
