#include "dur/record.hpp"

#include <array>

namespace eternal::dur {

// The frame header is little-endian on disk and Writer::patch_ulong
// stores host order, so the in-place header is only right on a
// little-endian host (as is every CDR payload here: writes use host order).
static_assert(cdr::kHostLittleEndian,
              "durable frame headers are patched in host byte order");

namespace {

/// Slicing-by-8 tables: kCrc[0] is the classic bytewise table and
/// kCrc[k][b] advances the CRC of byte `b` past `k` further zero bytes, so
/// eight table lookups fold in eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrc =
    make_crc_tables();

/// Little-endian word load, independent of host order and alignment.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c;
    const std::uint32_t hi = load_le32(data + 4);
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {  // the last 0-7 bytes
    c = kCrc[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void encode_journal_record_into(cdr::Writer& out, const JournalRecord& r) {
  out.put_ulonglong(r.index);
  out.put_ulonglong(r.carrier.epoch);
  out.put_ulonglong(r.carrier.seq);
  out.put_ulong(r.sender);
  out.put_octet(r.kind);
  out.put_string(r.group);
  out.put_ulonglong(r.op.parent.epoch);
  out.put_ulonglong(r.op.parent.seq);
  out.put_ulonglong(r.op.op_seq);
  out.put_octet_seq(r.payload);
}

JournalRecord decode_journal_record(cdr::Decoder& in) {
  JournalRecord r;
  r.index = in.get_ulonglong();
  r.carrier.epoch = in.get_ulonglong();
  r.carrier.seq = in.get_ulonglong();
  r.sender = in.get_ulong();
  r.kind = in.get_octet();
  r.group = in.get_string();
  r.op.parent.epoch = in.get_ulonglong();
  r.op.parent.seq = in.get_ulonglong();
  r.op.op_seq = in.get_ulonglong();
  r.payload = in.get_octet_seq_buf();
  return r;
}

void encode_checkpoint_record_into(cdr::Writer& out, const CheckpointHeader& h,
                                   const BlobWriter& write_blob) {
  out.put_string(h.group);
  out.put_octet(h.style);
  out.put_ulonglong(h.state_version);
  out.put_ulonglong(h.digest);
  out.put_ulonglong(h.position);
  out.put_ulonglong(h.max_epoch);
  out.put_ulonglong(h.client_next_op);
  out.begin_octet_seq();
  write_blob(out);
  out.end_octet_seq();
}

CheckpointRecord decode_checkpoint_record(cdr::Decoder& in) {
  CheckpointRecord r;
  r.group = in.get_string();
  r.style = in.get_octet();
  r.state_version = in.get_ulonglong();
  r.digest = in.get_ulonglong();
  r.position = in.get_ulonglong();
  r.max_epoch = in.get_ulonglong();
  r.client_next_op = in.get_ulonglong();
  r.blob = in.get_raw_buf(in.get_ulong());  // the in-place sequence
  return r;
}

void encode_meta_record_into(cdr::Writer& out, const MetaRecord& r) {
  out.put_ulonglong(r.max_epoch);
  out.put_ulonglong(r.client_next_op);
}

MetaRecord decode_meta_record(cdr::Decoder& in) {
  MetaRecord r;
  r.max_epoch = in.get_ulonglong();
  r.client_next_op = in.get_ulonglong();
  return r;
}

FrameStart begin_frame(cdr::Writer& w) {
  FrameStart f;
  f.len = w.reserve_ulong();
  f.crc = w.reserve_ulong();
  w.mark_origin();
  return f;
}

void end_frame(cdr::Writer& w, const FrameStart& f) {
  const std::span<const std::uint8_t> payload =
      w.written().subspan(f.crc.pos + 4);
  w.patch_ulong(f.len, static_cast<std::uint32_t>(payload.size()));
  w.patch_ulong(f.crc, crc32(payload.data(), payload.size()));
}

bool frame_parse(std::span<const std::uint8_t> data, std::size_t offset,
                 std::size_t& payload_offset, std::size_t& payload_len) {
  if (offset + 8 > data.size()) return false;  // truncated header
  const std::uint32_t len = load_le32(data.data() + offset);
  const std::uint32_t crc = load_le32(data.data() + offset + 4);
  if (offset + 8 + len > data.size()) return false;  // torn payload
  if (crc32(data.data() + offset + 8, len) != crc) return false;
  payload_offset = offset + 8;
  payload_len = len;
  return true;
}

}  // namespace eternal::dur
