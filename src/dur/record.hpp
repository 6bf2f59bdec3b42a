// On-disk record formats for the durability subsystem.
//
// Every durable artifact is a sequence of *framed* records:
//
//     [u32 length][u32 crc32][CDR payload of `length` bytes]
//
// The frame is what makes the journal scanner safe against every physical
// corruption class the simulated disk can inject: a torn tail shows up as
// a frame shorter than its declared length, a bit flip as a CRC mismatch —
// both stop the scan cleanly at the last intact prefix instead of feeding
// garbage to the replay path.
//
// Three record payloads exist, each with a wirecheck-paired codec:
//
//  * JournalRecord — one totally-ordered delivery addressed to a hosted
//    group: its absolute index (monotonic across compaction), total-order
//    carrier, sender, envelope kind/group/op-id (so tools and the recovery
//    gate can reason about the record without the rep layer), and the raw
//    envelope frame bytes for replay through the normal execution path.
//  * CheckpointRecord — one group-consistent checkpoint: the engine's
//    three-tier state blob plus the journal position replay resumes from,
//    the state digest the recovered state must reproduce, and the node
//    meta (max ring epoch, client op high-water) that keeps identifiers
//    unique across lives.
//  * MetaRecord — the node meta alone, rewritten atomically on every sync
//    tick so pure client nodes stay exactly-once across a restart too.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "cdr/cdr.hpp"
#include "rep/ids.hpp"

namespace eternal::dur {

using cdr::Bytes;

/// CRC-32 (IEEE 802.3, reflected) over `len` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

struct JournalRecord {
  std::uint64_t index = 0;     // absolute position, survives compaction
  rep::GlobalSeq carrier;      // total-order coordinates of the delivery
  std::uint32_t sender = 0;
  std::uint8_t kind = 0;       // rep::Kind raw value
  std::string group;           // target group (hosted at this node)
  rep::OperationId op;         // operation id (zero for non-op envelopes)
  Bytes payload;               // raw envelope frame, replayed verbatim
};

struct CheckpointRecord {
  std::string group;
  std::uint8_t style = 0;           // rep::Style raw value
  std::uint64_t state_version = 0;
  std::uint64_t digest = 0;         // digest_state at the cut
  std::uint64_t position = 0;       // journal index replay resumes from
  std::uint64_t max_epoch = 0;      // ring-epoch high water at the cut
  std::uint64_t client_next_op = 0; // this node's client op high water
  cdr::WireBuf blob;                // engine three-tier checkpoint state
};

struct MetaRecord {
  std::uint64_t max_epoch = 0;
  std::uint64_t client_next_op = 0;
};

void encode_journal_record_into(cdr::Writer& out, const JournalRecord& r);
JournalRecord decode_journal_record(cdr::Decoder& in);

void encode_checkpoint_record_into(cdr::Writer& out,
                                   const CheckpointRecord& r);
CheckpointRecord decode_checkpoint_record(cdr::Decoder& in);

void encode_meta_record_into(cdr::Writer& out, const MetaRecord& r);
MetaRecord decode_meta_record(cdr::Decoder& in);

/// Append one framed record (length + CRC header, then `payload`) to
/// `out`.
void frame_append(Bytes& out, std::span<const std::uint8_t> payload);

/// Parse the frame starting at `offset`. Returns true and sets
/// `payload_offset`/`payload_len` when an intact, CRC-valid frame is
/// present; false on a truncated or corrupt frame (scan stops there).
bool frame_parse(const Bytes& data, std::size_t offset,
                 std::size_t& payload_offset, std::size_t& payload_len);

}  // namespace eternal::dur
