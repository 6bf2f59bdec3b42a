// Replication-layer message envelopes.
//
// The infrastructure exchanges seven envelope kinds over the totally-ordered
// group channel. Invocations and responses carry *real GIOP messages*
// (request/reply) inside the envelope, mirroring how the original system
// intercepted IIOP messages below the ORB and tunnelled them through the
// group-communication system.
#pragma once

#include <cstdint>
#include <string>

#include "cdr/cdr.hpp"
#include "obs/trace.hpp"
#include "rep/ids.hpp"

namespace eternal::rep {

using cdr::Bytes;

enum class Kind : std::uint8_t {
  Invocation = 1,   // GIOP Request + operation identifier
  Response = 2,     // GIOP Reply + operation identifier
  StateUpdate = 3,  // passive-replication postimage
  JoinRequest = 4,  // ordered marker: a replica wants the group state
  Snapshot = 5,     // three-tier state, possibly chunked
  SyncedMark = 6,   // ordered record that a replica holds consistent state
  StateDigest = 7,  // divergence oracle: replica's state digest at an op
};

struct Envelope {
  Kind kind = Kind::Invocation;
  OperationId op_id;

  std::string target_group;  // group this envelope is addressed to
  std::string reply_group;   // where responses should go (Invocation)
  std::string source_group;  // invoking group ("" = unreplicated client)

  bool fulfillment = false;   // replay of a secondary-component operation
  std::uint64_t timestamp = 0;  // sanitized time base for the operation

  // Invocation only: reply retention (DESIGN §12, "Reply retention").
  /// The client's completion watermark: every operation of this client
  /// (keyed by `reply_group`) ordered below it has been answered, so its
  /// logged reply may go. A client stub sends its lowest outstanding
  /// operation; a group invoking nested operations sends {lowest carrier
  /// among its running executions, 0}.
  OperationId ack;
  /// The FT_REQUEST expiration_time: past it (in the group's ordered time)
  /// the request is refused and its logged reply may go. 0 = never.
  std::uint64_t expires = 0;

  /// GIOP Request (Invocation) or GIOP Reply (Response). Decoded envelopes
  /// hold a slice of the arriving frame (no copy); built envelopes hold the
  /// sealed GIOP frame from the sender's arena.
  cdr::WireBuf giop;

  // StateUpdate
  std::uint64_t state_version = 0;
  std::string operation;  // operation that produced the update (diagnostics)
  cdr::WireBuf update;    // postimage bytes (replica-defined encoding)
  bool read_only = false;

  // JoinRequest / Snapshot / SyncedMark
  std::uint32_t node = 0;        // joiner / synced / donor node
  std::uint32_t round = 0;       // join-request round (retry discrimination)
  /// JoinRequest: the joiner previously held consistent state (it is
  /// resyncing after a partition, not bootstrapping empty). Orders the
  /// self-promotion fallback so a fresh replica never outranks a state
  /// holder.
  bool has_history = false;
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 0;
  cdr::WireBuf blob;             // snapshot chunk payload

  // SyncedMark / JoinRequest: the durable prefix the replica's state
  // descends from — the total-order position of the last delivery its
  // journal replay applied, inherited through snapshots; zero when the
  // state never came off a disk. See Engine::handle_synced_mark.
  GlobalSeq lineage;

  // StateDigest (divergence oracle; `node` above names the digesting
  // replica and `state_version`/`operation` the checked boundary)
  std::uint64_t digest = 0;      // fnv1a over serialized tier-1 state

  // Causal trace context (obs/trace.hpp). The trace id names the causal
  // chain rooted at the original client invocation; the parent span is the
  // span that caused this envelope to be sent. Both zero when tracing is
  // off — the wire then carries a single flag byte.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  obs::TraceContext ctx() const noexcept { return {trace_id, parent_span}; }
};

/// Hot-path codec: encode into an open arena frame / decode an arriving
/// frame with giop/update/blob as zero-copy slices of it. Every kind
/// carries the header fields through `giop` and the trace context; the
/// fields from `state_version` to `digest` are written only for the
/// control kinds, never for an Invocation or Response (decoding resets
/// them), and each kind-specific field only for its kinds.
void encode_envelope_into(cdr::Writer& w, const Envelope& env);
Envelope decode_envelope(const cdr::WireBuf& frame);
/// Scratch-reuse variant: assigns every field of `env` (strings reuse
/// their capacity), so one long-lived envelope absorbs a whole stream of
/// deliveries without per-packet rehydration.
void decode_envelope_into(Envelope& env, const cdr::WireBuf& frame);

}  // namespace eternal::rep
