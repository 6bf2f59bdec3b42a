// Isolated wall-clock round trips (encode into an arena frame, decode the
// sealed frame) of the messages one Counter `incr` puts on the wire: the
// GIOP request and reply, the replication envelope carrying the request, a
// full Totem Batch frame of such envelopes, and the ring token.
#include <algorithm>

#include "bench.hpp"
#include "giop/giop.hpp"
#include "rep/wire.hpp"
#include "totem/wire.hpp"

namespace perfbench {

namespace {

constexpr int kBatches = 7;
constexpr int kIters = 20000;

// Keeps the round trips' results observable to the optimizer.
volatile std::uint64_t g_sink = 0;

/// Fastest of kBatches batches, in mean ns per call of `fn`.
template <typename Fn>
double time_ns(Fn&& fn) {
  std::vector<double> batches;
  std::uint64_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t t0 = wall_ns();
    for (int i = 0; i < kIters; ++i) sink += fn();
    batches.push_back(static_cast<double>(wall_ns() - t0) / kIters);
  }
  g_sink = sink;
  return *std::min_element(batches.begin(), batches.end());
}

cdr::WireBuf incr_body(cdr::Arena& arena) {
  cdr::Writer w(arena);
  w.put_longlong(1);
  return w.seal();
}

}  // namespace

std::map<std::string, double> codec_roundtrips(const std::string& group) {
  cdr::Arena arena;
  const cdr::WireBuf body = incr_body(arena);

  giop::FtRequestContext ft;
  ft.client_id = "client.3";
  ft.retention_id = 4242;
  ft.expiration_time = 60'000'000;
  giop::RequestHeader req;
  req.request_id = 4242;
  req.object_key = totem::group_buf(group);
  req.operation = "incr";
  req.service_contexts.push_back(
      {static_cast<std::uint32_t>(giop::ServiceId::FtRequest),
       cdr::WireBuf(ft.encode())});
  giop::ReplyHeader rep_hdr;
  rep_hdr.request_id = 4242;

  cdr::WireBuf request;
  {
    cdr::Writer w(arena);
    giop::encode_request_into(w, req, body.span());
    request = w.seal();
  }

  rep::Envelope env;
  env.kind = rep::Kind::Invocation;
  env.op_id.parent = {0, 4};
  env.op_id.op_seq = 4242;
  env.target_group = group;
  env.reply_group = "client.3";
  env.timestamp = 1'000'000;
  env.giop = request;
  cdr::WireBuf envelope;
  {
    cdr::Writer w(arena);
    rep::encode_envelope_into(w, env);
    envelope = w.seal();
  }

  // A full batch at the default Totem Params::max_batch (8 messages).
  totem::Packet batch;
  batch.kind = totem::MsgKind::Batch;
  batch.batch.ring = {7, 0};
  batch.batch.origin = 3;
  for (std::uint64_t i = 0; i < 8; ++i) {
    totem::DataMsg d;
    d.ring = batch.batch.ring;
    d.seq = 1000 + i;
    d.origin = 3;
    d.group = totem::group_buf(group);
    d.payload = envelope;
    batch.batch.msgs.push_back(d);
  }
  totem::Packet token;
  token.kind = totem::MsgKind::Token;
  token.token.ring = {7, 0};
  token.token.token_id = 99;
  token.token.seq = 1007;
  token.token.accum_min = 1000;
  token.token.safe_seq = 999;
  token.token.dest = 1;

  std::map<std::string, double> out;
  out["giop.request_roundtrip_ns"] = time_ns([&] {
    cdr::Writer w(arena);
    giop::encode_request_into(w, req, body.span());
    const giop::Message m = giop::decode(w.seal());
    return m.body.size();
  });
  out["giop.reply_roundtrip_ns"] = time_ns([&] {
    cdr::Writer w(arena);
    giop::encode_reply_into(w, rep_hdr, body.span());
    const giop::Message m = giop::decode(w.seal());
    return m.body.size();
  });
  out["rep.envelope_roundtrip_ns"] = time_ns([&] {
    cdr::Writer w(arena);
    rep::encode_envelope_into(w, env);
    const rep::Envelope e = rep::decode_envelope(w.seal());
    return e.giop.size();
  });
  totem::Packet rx;
  out["totem.data_roundtrip_ns"] = time_ns([&] {
    cdr::Writer w(arena, 2048);
    totem::encode_packet_into(w, batch);
    totem::decode_packet_into(rx, w.seal());
    return rx.batch.msgs.size();
  });
  out["totem.token_roundtrip_ns"] = time_ns([&] {
    cdr::Writer w(arena);
    totem::encode_packet_into(w, token);
    totem::decode_packet_into(rx, w.seal());
    return static_cast<std::size_t>(rx.token.seq);
  });
  return out;
}

}  // namespace perfbench
