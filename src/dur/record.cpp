#include "dur/record.hpp"

#include <array>

namespace eternal::dur {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = kCrcTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
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
  r.payload = in.get_octet_seq();
  return r;
}

void encode_checkpoint_record_into(cdr::Writer& out,
                                   const CheckpointRecord& r) {
  out.put_string(r.group);
  out.put_octet(r.style);
  out.put_ulonglong(r.state_version);
  out.put_ulonglong(r.digest);
  out.put_ulonglong(r.position);
  out.put_ulonglong(r.max_epoch);
  out.put_ulonglong(r.client_next_op);
  out.put_octet_seq(r.blob);
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
  r.blob = in.get_octet_seq_buf();
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

namespace {

void put_u32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t read_u32(const Bytes& data, std::size_t at) {
  return static_cast<std::uint32_t>(data[at]) |
         static_cast<std::uint32_t>(data[at + 1]) << 8 |
         static_cast<std::uint32_t>(data[at + 2]) << 16 |
         static_cast<std::uint32_t>(data[at + 3]) << 24;
}

}  // namespace

void frame_append(Bytes& out, std::span<const std::uint8_t> payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

bool frame_parse(const Bytes& data, std::size_t offset,
                 std::size_t& payload_offset, std::size_t& payload_len) {
  if (offset + 8 > data.size()) return false;  // truncated header
  const std::uint32_t len = read_u32(data, offset);
  const std::uint32_t crc = read_u32(data, offset + 4);
  if (offset + 8 + len > data.size()) return false;  // torn payload
  if (crc32(data.data() + offset + 8, len) != crc) return false;
  payload_offset = offset + 8;
  payload_len = len;
  return true;
}

}  // namespace eternal::dur
