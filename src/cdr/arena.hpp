// Arena-backed wire buffers: the ownership layer under cdr::Writer.
//
// The hot path (client -> token-visit send -> deliver -> execute -> reply)
// used to build every frame in a fresh std::vector and copy it at each
// hand-off. This header makes ownership explicit instead:
//
//   * Slab      — a pooled, refcounted block of bytes. Slabs come from a
//                 process-wide freelist (SlabPool), so steady-state traffic
//                 recycles the same few blocks and never touches operator new.
//   * Arena     — a bump allocator packing sealed frames into slabs. One
//                 frame is open at a time; Writer grows it in place (or by
//                 slab upgrade) and seals it into a WireBuf.
//   * WireBuf   — an immutable view of one sealed frame. Small frames
//                 (<= kInlineCapacity) are stored inline, so copying them is
//                 a memcpy; larger frames reference their slab, so copying
//                 is a refcount bump and slicing shares the arriving bytes.
//
// Everything here is single-threaded by design: the simulation delivers all
// traffic on one logical thread, so refcounts are plain integers (the same
// reasoning the paper applies to sanitizing multithreading for determinism).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

namespace eternal::cdr {

using Bytes = std::vector<std::uint8_t>;

/// A pooled block of bytes shared by every WireBuf sliced out of it. The
/// refcount is a plain integer: one logical thread, no atomics.
struct Slab {
  std::uint32_t refs = 0;
  std::uint32_t size_class = 0;  // index into SlabPool's classes; oversize
                                 // slabs use kOversize and are never pooled
  std::size_t capacity = 0;
  std::uint8_t* data = nullptr;  // owned by SlabPool
};

/// Process-wide slab freelist, bucketed by size class. acquire() reuses a
/// pooled slab when one fits and only calls operator new on first growth;
/// the last unref() of a slab returns it to the pool.
class SlabPool {
 public:
  static constexpr std::size_t kClasses = 6;       // 4 KiB .. 4 MiB
  static constexpr std::uint32_t kOversize = kClasses;
  static constexpr std::size_t kMaxPooledPerClass = 64;

  /// The process-wide pool every Arena and WireBuf draws from.
  static SlabPool& global();

  /// A slab with capacity >= min_capacity and refs == 1.
  Slab* acquire(std::size_t min_capacity);

  void ref(Slab* s) noexcept { ++s->refs; }
  void unref(Slab* s) noexcept {
    if (--s->refs == 0) release(s);
  }

  /// Slabs currently out of the pool (held by arenas or WireBufs).
  std::size_t live() const noexcept { return live_; }
  /// Slabs parked in the freelists.
  std::size_t pooled() const noexcept;
  /// Frees every pooled slab (tests; never required for correctness).
  void trim();

  ~SlabPool();

 private:
  void release(Slab* s) noexcept;

  std::array<std::vector<Slab*>, kClasses> free_;
  std::size_t live_ = 0;
};

/// An immutable sealed frame. Inline below kInlineCapacity (copy = memcpy,
/// no allocation), slab-backed above it (copy = refcount bump). slice()
/// shares the slab, so decoding a payload out of an arriving frame costs
/// nothing and keeps the frame alive for exactly as long as the slice.
class WireBuf {
 public:
  static constexpr std::size_t kInlineCapacity = 256;

  WireBuf() noexcept : slab_(nullptr), off_(0), len_(0) {}
  /// Copies `bytes` (inline when small, into a fresh pooled slab when not).
  explicit WireBuf(std::span<const std::uint8_t> bytes);
  explicit WireBuf(const Bytes& bytes)
      : WireBuf(std::span<const std::uint8_t>(bytes.data(), bytes.size())) {}
  /// Literal bytes (tests and goldens): `buf = {0xDE, 0xAD}`.
  WireBuf(std::initializer_list<std::uint8_t> bytes)
      : WireBuf(std::span<const std::uint8_t>(bytes.begin(), bytes.size())) {}

  WireBuf(const WireBuf& o);
  WireBuf(WireBuf&& o) noexcept;
  WireBuf& operator=(const WireBuf& o);
  WireBuf& operator=(WireBuf&& o) noexcept;
  ~WireBuf() { drop(); }

  /// Wraps [off, off+len) of `s`, consuming one reference the caller holds.
  static WireBuf adopt(Slab* s, std::size_t off, std::size_t len) noexcept;

  const std::uint8_t* data() const noexcept {
    return slab_ ? slab_->data + off_ : inline_.data();
  }
  std::size_t size() const noexcept { return len_; }
  bool empty() const noexcept { return len_ == 0; }
  std::span<const std::uint8_t> span() const noexcept {
    return {data(), len_};
  }
  /// True when the bytes live inline in this object (no slab reference).
  bool inline_storage() const noexcept { return slab_ == nullptr; }

  /// A sub-range of this frame. Slab-backed bufs share the slab (refcount
  /// bump); inline bufs copy the sub-range inline.
  WireBuf slice(std::size_t off, std::size_t len) const;

  /// Owned copy, for the cold edges that still traffic in Bytes.
  Bytes to_bytes() const { return Bytes(data(), data() + len_); }

  friend bool operator==(const WireBuf& a, const WireBuf& b) noexcept {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0);
  }

 private:
  void drop() noexcept;

  Slab* slab_ = nullptr;    // nullptr => inline storage
  std::uint32_t off_ = 0;   // offset into slab_->data
  std::uint32_t len_ = 0;
  std::array<std::uint8_t, kInlineCapacity> inline_;
};

/// Bump allocator packing sealed frames into pooled slabs. One frame may be
/// open at a time (cdr::Writer drives the protocol); sealed small frames
/// rewind the bump pointer, so envelope-sized traffic reuses the same slab
/// bytes forever.
class Arena {
 public:
  explicit Arena(std::size_t min_slab = std::size_t{1} << 14)
      : min_slab_(min_slab) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { reset(); }

  // --- frame protocol (used by cdr::Writer) ---
  /// Opens a frame with at least `reserve` writable bytes; returns its base.
  std::uint8_t* begin_frame(std::size_t reserve);
  /// Writable capacity of the open frame.
  std::size_t frame_capacity() const noexcept {
    return cur_ ? cur_->capacity - frame_base_ : 0;
  }
  /// Grows the open frame to at least `min_capacity`, moving its first
  /// `used` bytes. Returns the (possibly moved) frame base.
  std::uint8_t* grow_frame(std::size_t used, std::size_t min_capacity);
  /// Seals `len` bytes as an immutable WireBuf. Small frames come back
  /// inline and their arena bytes are reused; large frames reference the
  /// slab and the bump pointer advances past them.
  WireBuf seal_frame(std::size_t len);
  /// Closes the open frame without sealing (Writer destructor on error).
  void abandon_frame() noexcept;
  bool frame_open() const noexcept { return open_; }

  /// Drops the current slab (it is freed once outstanding WireBufs die).
  void reset() noexcept;

  // --- test introspection ---
  const Slab* slab() const noexcept { return cur_; }
  std::size_t pos() const noexcept { return pos_; }

 private:
  std::size_t min_slab_ = 0;
  Slab* cur_ = nullptr;
  std::size_t pos_ = 0;         // next free offset in cur_
  std::size_t frame_base_ = 0;  // open frame's start offset
  bool open_ = false;
};

}  // namespace eternal::cdr
