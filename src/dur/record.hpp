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
// Frames are built in place: `begin_frame` reserves the header in a
// cdr::Writer and restarts its alignment origin, the record is encoded
// straight after it, and `end_frame` patches the length and the CRC over
// the payload. The writers (journal append, checkpoint save, meta rewrite)
// therefore encode each durable byte once, CRC it once and hand the
// Writer's bytes to sim::Disk, which copies them once.
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
#include <functional>
#include <span>
#include <string>

#include "cdr/cdr.hpp"
#include "rep/ids.hpp"

namespace eternal::dur {

using cdr::Bytes;

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `len`
/// bytes, slicing by 8.
std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

struct JournalRecord {
  std::uint64_t index = 0;     // absolute position, survives compaction
  rep::GlobalSeq carrier;      // total-order coordinates of the delivery
  std::uint32_t sender = 0;
  std::uint8_t kind = 0;       // rep::Kind raw value
  std::string group;           // target group (hosted at this node)
  rep::OperationId op;         // operation id (zero for non-op envelopes)
  cdr::WireBuf payload;        // raw envelope frame, replayed verbatim
};

/// A checkpoint's fields ahead of its blob.
struct CheckpointHeader {
  std::string group;
  std::uint8_t style = 0;           // rep::Style raw value
  std::uint64_t state_version = 0;
  std::uint64_t digest = 0;         // digest_state at the cut
  std::uint64_t position = 0;       // journal index replay resumes from
  std::uint64_t max_epoch = 0;      // ring-epoch high water at the cut
  std::uint64_t client_next_op = 0; // this node's client op high water
};

/// A checkpoint as read back: the header plus the engine's three-tier
/// state blob.
struct CheckpointRecord : CheckpointHeader {
  cdr::WireBuf blob;
};

/// Writes a checkpoint's blob content in place (the engine's three tiers).
using BlobWriter = std::function<void(cdr::Writer&)>;

struct MetaRecord {
  std::uint64_t max_epoch = 0;
  std::uint64_t client_next_op = 0;
};

void encode_journal_record_into(cdr::Writer& out, const JournalRecord& r);
JournalRecord decode_journal_record(cdr::Decoder& in);

/// The header, then the blob as a sequence<octet> whose content
/// `write_blob` writes in place, aligned as its own stream.
void encode_checkpoint_record_into(cdr::Writer& out, const CheckpointHeader& h,
                                   const BlobWriter& write_blob);
CheckpointRecord decode_checkpoint_record(cdr::Decoder& in);

void encode_meta_record_into(cdr::Writer& out, const MetaRecord& r);
MetaRecord decode_meta_record(cdr::Decoder& in);

/// A frame open in a Writer: its header is reserved and the payload is
/// being written after it.
struct FrameStart {
  cdr::Writer::Patch len;
  cdr::Writer::Patch crc;
};

/// Reserve a frame header at the Writer's position and restart the
/// alignment origin after it, so the payload aligns as its own stream.
FrameStart begin_frame(cdr::Writer& w);
/// Patch the header with the length and CRC of everything written since
/// `begin_frame`.
void end_frame(cdr::Writer& w, const FrameStart& f);

/// Parse the frame starting at `offset`. Returns true and sets
/// `payload_offset`/`payload_len` when an intact, CRC-valid frame is
/// present; false on a truncated or corrupt frame (scan stops there).
bool frame_parse(std::span<const std::uint8_t> data, std::size_t offset,
                 std::size_t& payload_offset, std::size_t& payload_len);

}  // namespace eternal::dur
