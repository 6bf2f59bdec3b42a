// Wire format of the Totem-style single-ring protocol.
//
// Six message kinds circulate on the simulated LAN:
//   Data         — a sequenced broadcast (application payload or control)
//   Batch        — several sequenced broadcasts from one origin packed into
//                  a single frame (one token visit); unpacked on receipt so
//                  the layers above only ever see Data-equivalent messages
//   Token        — the circulating ring token (unicast to the next member)
//   Join         — membership gathering (broadcast while forming a ring)
//   Commit       — the two-pass commit token that installs a new ring
//   RingAnnounce — a periodic probe that lets partitioned rings detect
//                  each other after the network remerges
//
// Everything is CDR-encoded so the same marshaling machinery underpins the
// whole stack.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cdr/cdr.hpp"
#include "sim/network.hpp"

namespace eternal::totem {

using sim::NodeId;

/// Identifies one ring configuration. epoch increases across every
/// membership change anywhere in the system (carried through joins), so a
/// ring id never repeats and orders configurations causally.
struct RingId {
  std::uint64_t epoch = 0;
  NodeId leader = 0;

  auto operator<=>(const RingId&) const = default;
  bool valid() const noexcept { return epoch != 0; }
  std::string str() const {
    return std::to_string(epoch) + "@" + std::to_string(leader);
  }
};

enum class MsgKind : std::uint8_t {
  Data = 1,
  Token = 2,
  Join = 3,
  Commit = 4,
  RingAnnounce = 5,
  Batch = 6,
};

/// Flags on Data messages.
enum DataFlags : std::uint8_t {
  kFlagControl = 1,   // consumed by the group layer, not the application
  kFlagRecovery = 2,  // encapsulates a Data message from an earlier ring
  kFlagTraced = 4,    // carries a causal trace context (trace_id/parent_span)
};

struct DataMsg {
  RingId ring;
  std::uint64_t seq = 0;  // position in the ring's total order
  NodeId origin = 0;
  std::uint8_t flags = 0;
  /// Destination process/object group name (empty for ring control).
  /// Carried as a WireBuf, not a string: decode borrows a slice of the
  /// arriving frame, and senders stamp an inline copy via group_buf(), so
  /// no std::string is rehydrated per packet anywhere on the data path.
  cdr::WireBuf group;
  /// Payload bytes. Decoded frames hold a slice of the arriving frame
  /// (refcounted slab share, no copy); copies of the message — e.g. into
  /// the retransmission store — bump the refcount instead of duplicating.
  cdr::WireBuf payload;

  // Set when flags & kFlagRecovery: the configuration the inner message was
  // originally ordered in, and its sequence number there.
  RingId old_ring;
  std::uint64_t old_seq = 0;

  // Set when flags & kFlagTraced: causal trace context of the payload, so
  // the ordering layer can emit spans in the payload's causal chain without
  // decoding the opaque payload bytes. Preserved through Batch packing and
  // recovery re-broadcast.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// Several Data messages from one origin, packed into a single frame during
/// one token visit. The ring id and origin are shared (encoded once); each
/// inner message keeps its own sequence number, flags, group and payload, so
/// unpacking yields ordinary DataMsgs and nothing above the wire notices.
/// Recovery re-broadcasts (kFlagRecovery) are never batched.
struct BatchMsg {
  RingId ring;
  NodeId origin = 0;
  std::vector<DataMsg> msgs;
};

struct TokenMsg {
  RingId ring;
  std::uint64_t token_id = 0;  // strictly increasing; dedups retransmits
  std::uint64_t seq = 0;       // highest Data seq assigned on this ring
  /// Running minimum of member arus over the current rotation.
  std::uint64_t accum_min = 0;
  /// Minimum aru over the previous complete rotation: messages with
  /// seq <= safe_seq are stable at every member (safe delivery point).
  std::uint64_t safe_seq = 0;
  std::vector<std::uint64_t> retransmit;  // seqs some member is missing
  NodeId dest = 0;                        // next member on the ring
};

struct JoinMsg {
  NodeId sender = 0;
  std::vector<NodeId> candidates;  // sorted set of processors sender gathers
  std::uint64_t max_epoch = 0;     // highest ring epoch sender has seen
};

/// Per-member old-ring summary carried on the commit token so every member
/// of the new ring can plan message recovery.
struct CommitInfo {
  NodeId member = 0;
  bool has_old_ring = false;
  RingId old_ring;
  std::uint64_t old_aru = 0;   // contiguously received up to
  std::uint64_t old_high = 0;  // highest seq held (possibly with gaps)
};

struct CommitMsg {
  RingId ring;                   // the new ring being installed
  std::vector<NodeId> members;   // sorted ascending
  std::uint8_t pass = 1;         // 1 = collect, 2 = install
  std::vector<CommitInfo> infos; // aligned with members, filled on pass 1
  NodeId dest = 0;
};

struct RingAnnounceMsg {
  NodeId sender = 0;
  RingId ring;
  std::vector<NodeId> members;
};

/// A group name as a wire buffer: an inline copy for realistic name lengths
/// (<= 256 bytes — no allocation), slab-backed beyond that. Senders stamp
/// outgoing DataMsgs with this.
inline cdr::WireBuf group_buf(std::string_view name) {
  return cdr::WireBuf(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(name.data()), name.size()));
}

/// The textual view of a group-name buffer (valid while the buffer lives).
inline std::string_view group_view(const cdr::WireBuf& g) noexcept {
  return {reinterpret_cast<const char*>(g.data()), g.size()};
}

/// Tagged union of every protocol message.
struct Packet {
  MsgKind kind = MsgKind::Data;
  DataMsg data;
  BatchMsg batch;
  TokenMsg token;
  JoinMsg join;
  CommitMsg commit;
  RingAnnounceMsg announce;
};

/// Encodes a packet into an open arena frame in one pass; the caller seals
/// the Writer into the WireBuf it hands to the network.
void encode_packet_into(cdr::Writer& w, const Packet& pkt);

/// The frame encode_packet_into writes for a Token packet, encoded straight
/// from the token: the token path sends without building a Packet.
void encode_token_packet_into(cdr::Writer& w, const TokenMsg& t);

/// Decodes a frame into `out`, reusing its vectors' and strings' capacity
/// (nodes keep one scratch Packet, so steady-state decode allocates
/// nothing). Payloads come back as slices of `frame`.
void decode_packet_into(Packet& out, const cdr::WireBuf& frame);

/// One Data message encoded standalone (recovery re-broadcast wraps the
/// original frame as a payload).
void encode_data_into(cdr::Writer& w, const DataMsg& d);
DataMsg decode_data_payload(const cdr::WireBuf& payload);

}  // namespace eternal::totem
