#include "rep/wire.hpp"

namespace eternal::rep {

namespace {
void put_seq(cdr::Writer& w, const GlobalSeq& s) {
  w.put_ulonglong(s.epoch);
  w.put_ulonglong(s.seq);
}
GlobalSeq get_seq(cdr::Decoder& dec) {
  GlobalSeq s;
  s.epoch = dec.get_ulonglong();
  s.seq = dec.get_ulonglong();
  return s;
}
}  // namespace

void encode_envelope_into(cdr::Writer& w, const Envelope& env) {
  w.put_octet(static_cast<std::uint8_t>(env.kind));
  put_seq(w, env.op_id.parent);
  w.put_ulonglong(env.op_id.op_seq);
  w.put_string(env.target_group);
  w.put_string(env.reply_group);
  w.put_string(env.source_group);
  w.put_boolean(env.fulfillment);
  w.put_ulonglong(env.timestamp);
  if (env.kind == Kind::Invocation) {
    put_seq(w, env.ack.parent);
    w.put_ulonglong(env.ack.op_seq);
    w.put_ulonglong(env.expires);
  }
  w.put_octet_seq(env.giop);
  if (env.kind != Kind::Invocation && env.kind != Kind::Response) {
    w.put_ulonglong(env.state_version);
    w.put_string(env.operation);
    w.put_octet_seq(env.update);
    w.put_boolean(env.read_only);
    w.put_ulong(env.node);
    w.put_ulong(env.round);
    w.put_boolean(env.has_history);
    w.put_ulong(env.chunk_index);
    w.put_ulong(env.chunk_count);
    w.put_octet_seq(env.blob);
    if (env.kind == Kind::SyncedMark || env.kind == Kind::JoinRequest) {
      put_seq(w, env.lineage);
    }
    w.put_ulonglong(env.digest);
  }
  const bool traced = env.trace_id != 0 || env.parent_span != 0;
  w.put_boolean(traced);
  if (traced) {
    w.put_ulonglong(env.trace_id);
    w.put_ulonglong(env.parent_span);
  }
}

void decode_envelope_into(Envelope& env, const cdr::WireBuf& frame) {
  // lint: hotpath — scratch-envelope decode, one per totally-ordered
  // delivery. Strings are assigned from borrowed views so a reused
  // envelope's capacity absorbs them; WireBuf members are frame slices.
  cdr::Decoder dec(frame);
  const std::uint8_t kind = dec.get_octet();
  if (kind < 1 || kind > 7) throw cdr::MarshalError("bad envelope kind");
  env.kind = static_cast<Kind>(kind);
  env.op_id.parent = get_seq(dec);
  env.op_id.op_seq = dec.get_ulonglong();
  env.target_group.assign(dec.get_string_view());
  env.reply_group.assign(dec.get_string_view());
  env.source_group.assign(dec.get_string_view());
  env.fulfillment = dec.get_boolean();
  env.timestamp = dec.get_ulonglong();
  if (env.kind == Kind::Invocation) {
    env.ack.parent = get_seq(dec);
    env.ack.op_seq = dec.get_ulonglong();
    env.expires = dec.get_ulonglong();
  } else {
    env.ack = OperationId{};
    env.expires = 0;
  }
  env.giop = dec.get_octet_seq_buf();
  if (env.kind != Kind::Invocation && env.kind != Kind::Response) {
    env.state_version = dec.get_ulonglong();
    env.operation.assign(dec.get_string_view());
    env.update = dec.get_octet_seq_buf();
    env.read_only = dec.get_boolean();
    env.node = dec.get_ulong();
    env.round = dec.get_ulong();
    env.has_history = dec.get_boolean();
    env.chunk_index = dec.get_ulong();
    env.chunk_count = dec.get_ulong();
    env.blob = dec.get_octet_seq_buf();
    if (env.kind == Kind::SyncedMark || env.kind == Kind::JoinRequest) {
      env.lineage = get_seq(dec);
    } else {
      env.lineage = GlobalSeq{};
    }
    env.digest = dec.get_ulonglong();
  } else {
    env.state_version = 0;
    env.operation.clear();
    env.update = cdr::WireBuf();
    env.read_only = false;
    env.node = 0;
    env.round = 0;
    env.has_history = false;
    env.chunk_index = 0;
    env.chunk_count = 0;
    env.blob = cdr::WireBuf();
    env.lineage = GlobalSeq{};
    env.digest = 0;
  }
  if (dec.get_boolean()) {
    env.trace_id = dec.get_ulonglong();
    env.parent_span = dec.get_ulonglong();
  } else {
    env.trace_id = 0;
    env.parent_span = 0;
  }
}

Envelope decode_envelope(const cdr::WireBuf& frame) {
  Envelope env;
  decode_envelope_into(env, frame);
  return env;
}

}  // namespace eternal::rep
