// CORBA Common Data Representation (CDR) marshaling.
//
// lint:allow-file(wirecheck) — this IS the primitive layer wirecheck models:
// put_*/get_* here are defined in terms of raw byte moves and each other
// (get_short via get_ushort, encapsulation via octet_seq), so the lexical
// op model sees asymmetry where there is none. Symmetry of the trust root
// is verified dynamically by the cdr_test round-trip suite instead.
//
// Implements the CDR transfer syntax used by GIOP: primitives are aligned to
// their natural size relative to the start of the stream, strings carry a
// length (including the terminating NUL) followed by the bytes, sequences
// carry an element count, and encapsulations are octet sequences that begin
// with an endianness flag. Both byte orders are supported on read; writes
// use the host's order and record it in encapsulation flags, exactly as a
// real ORB does. Writer is the only encoder; Decoder reads.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cdr/arena.hpp"

namespace eternal::cdr {

/// Thrown on underflow, malformed lengths, or bounds violations while
/// demarshaling. A real ORB maps this to the CORBA::MARSHAL system exception.
class MarshalError : public std::runtime_error {
 public:
  explicit MarshalError(const std::string& what) : std::runtime_error(what) {}
};

constexpr bool kHostLittleEndian = (std::endian::native == std::endian::little);

/// CDR writer: the one encoder. It encodes in place into an arena-backed
/// frame; growth is a slab upgrade, and seal() hands back an immutable
/// WireBuf (inline when small, refcounted slab reference when large).
/// Alignment is relative to the frame start (or the last mark_origin /
/// open sequence), so GIOP bodies and encapsulations align as their own
/// streams.
///
/// A Writer either borrows a long-lived Arena (hot-path senders that seal
/// many frames) or, default-constructed, owns one that starts at the
/// smallest slab class and returns its slab to the pool when the Writer
/// dies. One Writer may be open per Arena at a time; destroying an unsealed
/// Writer abandons the frame.
class Writer {
 public:
  /// A Writer over its own arena (cold paths, per-operation results).
  Writer()
      : arena_(own_),
        base_(own_.begin_frame(kDefaultReserve)),
        cap_(own_.frame_capacity()) {}
  explicit Writer(Arena& arena, std::size_t reserve = kDefaultReserve)
      : arena_(arena),
        base_(arena.begin_frame(reserve)),
        cap_(arena.frame_capacity()) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;
  ~Writer() {
    if (!sealed_) arena_.abandon_frame();
  }

  std::size_t size() const noexcept { return len_; }
  /// The bytes written so far (valid until the next put grows the frame).
  std::span<const std::uint8_t> written() const noexcept {
    return {base_, len_};
  }

  void align(std::size_t alignment);

  void put_octet(std::uint8_t v) {
    ensure(1);
    base_[len_++] = v;
  }
  void put_boolean(bool v) { put_octet(v ? 1 : 0); }
  void put_char(char v) { put_octet(static_cast<std::uint8_t>(v)); }
  void put_ushort(std::uint16_t v) { put_aligned(v); }
  void put_short(std::int16_t v) { put_aligned(static_cast<std::uint16_t>(v)); }
  void put_ulong(std::uint32_t v) { put_aligned(v); }
  void put_long(std::int32_t v) { put_aligned(static_cast<std::uint32_t>(v)); }
  void put_ulonglong(std::uint64_t v) { put_aligned(v); }
  void put_longlong(std::int64_t v) {
    put_aligned(static_cast<std::uint64_t>(v));
  }
  void put_float(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, 4);
    put_aligned(bits);
  }
  void put_double(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    put_aligned(bits);
  }

  /// CDR string: ulong length including NUL, bytes, NUL.
  void put_string(std::string_view s);

  /// sequence<octet>: ulong count then raw bytes.
  void put_octet_seq(std::span<const std::uint8_t> bytes);
  void put_octet_seq(const WireBuf& buf) { put_octet_seq(buf.span()); }

  /// Raw bytes with no count (caller manages framing).
  void put_raw(std::span<const std::uint8_t> bytes);

  /// A reserved length field, filled in by patch_ulong once the content
  /// after it has been written.
  struct Patch {
    std::size_t pos = 0;
  };
  Patch reserve_ulong();
  void patch_ulong(Patch p, std::uint32_t v) {
    std::memcpy(base_ + p.pos, &v, 4);
  }

  /// Opens a sequence<octet> whose content is written in place as its own
  /// stream: ulong count (backpatched by end_octet_seq), then content
  /// aligned relative to its first byte. An encapsulation is such a
  /// sequence whose first octet is the endian flag (put_boolean of
  /// kHostLittleEndian).
  void begin_octet_seq();
  /// Closes the innermost open sequence; returns its content size.
  std::size_t end_octet_seq();

  /// Restarts the alignment origin at the current position. GIOP framing
  /// uses this: content after the fixed 12-byte header aligns as its own
  /// stream.
  void mark_origin() noexcept { origin_ = len_; }

  /// Seals the frame into an immutable WireBuf; the Writer is finished.
  WireBuf seal();

 private:
  static constexpr std::size_t kDefaultReserve = 256;
  static constexpr std::size_t kOwnedMinSlab = std::size_t{1} << 12;

  template <typename T>
  void put_aligned(T v) {
    align(sizeof(T));
    ensure(sizeof(T));
    std::memcpy(base_ + len_, &v, sizeof(T));
    len_ += sizeof(T);
  }

  void ensure(std::size_t more) {
    if (len_ + more > cap_) grow(len_ + more);
  }
  void grow(std::size_t min_capacity);

  Arena own_{kOwnedMinSlab};  // holds no slab unless arena_ refers to it
  Arena& arena_;
  std::uint8_t* base_ = nullptr;
  std::size_t len_ = 0;
  std::size_t cap_ = 0;
  std::size_t origin_ = 0;  // alignment origin (current sequence start)
  struct SeqFrame {
    std::size_t patch_pos = 0;
    std::size_t prev_origin = 0;
  };
  static constexpr std::size_t kMaxSeqDepth = 4;
  std::array<SeqFrame, kMaxSeqDepth> seqs_{};
  std::size_t depth_ = 0;
  bool sealed_ = false;
};

/// CDR decoder over a borrowed byte span. The decoder does not own the
/// bytes; callers keep the backing buffer alive for the decoder's lifetime.
///
/// View mode: constructed over a WireBuf, the decoder can hand out payloads
/// that *reference* the frame instead of copying it — get_octet_seq_buf()
/// returns a WireBuf slice (refcount bump, keeps the frame alive),
/// get_string_view()/get_view() return borrowed views valid only while the
/// frame is. This is how decode_data_payload, batch unpacking and Envelope
/// decode avoid per-hop copies.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> data, bool swap = false)
      : data_(data), swap_(swap) {}
  /// View mode: borrow `frame`, enabling zero-copy payload slices. The
  /// WireBuf must outlive the decoder (and plain borrowed views taken from
  /// it), but slices returned by get_octet_seq_buf own their own reference.
  explicit Decoder(const WireBuf& frame, bool swap = false)
      : data_(frame.span()), swap_(swap), src_(&frame) {}

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }
  void set_swap(bool swap) noexcept { swap_ = swap; }
  bool swapping() const noexcept { return swap_; }

  void align(std::size_t alignment);

  std::uint8_t get_octet();
  bool get_boolean() { return get_octet() != 0; }
  char get_char() { return static_cast<char>(get_octet()); }
  std::uint16_t get_ushort() { return get_aligned<std::uint16_t>(); }
  std::int16_t get_short() {
    return static_cast<std::int16_t>(get_ushort());
  }
  std::uint32_t get_ulong() { return get_aligned<std::uint32_t>(); }
  std::int32_t get_long() { return static_cast<std::int32_t>(get_ulong()); }
  std::uint64_t get_ulonglong() { return get_aligned<std::uint64_t>(); }
  std::int64_t get_longlong() {
    return static_cast<std::int64_t>(get_ulonglong());
  }
  float get_float() {
    const std::uint32_t bits = get_ulong();
    float v;
    std::memcpy(&v, &bits, 4);
    return v;
  }
  double get_double() {
    const std::uint64_t bits = get_ulonglong();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  std::string get_string();
  Bytes get_octet_seq();
  /// sequence<octet> without the copy: a WireBuf referencing the source
  /// frame (View mode) or an owned copy when decoding a plain span.
  WireBuf get_octet_seq_buf();
  /// CDR string as a borrowed view into the frame (no allocation). Valid
  /// only while the backing buffer is alive.
  std::string_view get_string_view();
  /// View of n raw bytes; throws on underflow.
  std::span<const std::uint8_t> get_raw(std::size_t n);
  /// Alias of get_raw for View-mode readers: borrowed payload access.
  std::span<const std::uint8_t> get_view(std::size_t n) { return get_raw(n); }
  /// n raw bytes (no count prefix) as a WireBuf: a slice of the source
  /// frame in View mode, an owned copy otherwise. GIOP bodies use this —
  /// the body is the unframed tail of the message.
  WireBuf get_raw_buf(std::size_t n);
  /// A decoder over the next n bytes with a fresh alignment origin,
  /// inheriting this decoder's byte order and View mode. Like
  /// get_encapsulation without the count and endian flag; GIOP uses it for
  /// the header-relative content stream.
  Decoder get_subrange(std::size_t n);

  /// Reads a sequence<octet> and returns a decoder over its contents with
  /// the endian flag already consumed and applied. View mode propagates, so
  /// nested get_octet_seq_buf slices still share the source frame.
  Decoder get_encapsulation();

 private:
  template <typename T>
  T get_aligned() {
    align(sizeof(T));
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    if (swap_) v = byteswap(v);
    return v;
  }

  static std::uint16_t byteswap(std::uint16_t v) noexcept {
    return static_cast<std::uint16_t>((v >> 8) | (v << 8));
  }
  static std::uint32_t byteswap(std::uint32_t v) noexcept {
    return __builtin_bswap32(v);
  }
  static std::uint64_t byteswap(std::uint64_t v) noexcept {
    return __builtin_bswap64(v);
  }

  void require(std::size_t n) const {
    if (remaining() < n) throw MarshalError("CDR underflow");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool swap_ = false;
  const WireBuf* src_ = nullptr;  // View mode: frame the span was taken from
  std::size_t src_off_ = 0;       // offset of data_[0] within *src_
};

}  // namespace eternal::cdr
