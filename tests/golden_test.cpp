// Wire-format goldens: every CDR artifact the system puts on the wire or on
// disk, pinned as literal bytes. The encoders may be rewritten freely; these
// bytes may not change without a deliberate format bump.
//
// The literals are little-endian (CDR writes the host's byte order and
// records it in the stream), so the suite is skipped on big-endian hosts.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "app/servants.hpp"
#include "dur/durability.hpp"
#include "ft/replication_manager.hpp"
#include "giop/giop.hpp"
#include "obs/recorder.hpp"
#include "orb/adapter.hpp"
#include "rep/domain.hpp"
#include "rep/stub.hpp"
#include "rep/wire.hpp"
#include "sim/disk.hpp"
#include "totem/wire.hpp"

namespace eternal {
namespace {

using sim::kMillisecond;
using sim::kSecond;

/// Lower-case hex of any contiguous byte container (Bytes or WireBuf).
template <typename Buf>
std::string hex(const Buf& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = 0; i < b.size(); ++i) {
    out += kDigits[b.data()[i] >> 4];
    out += kDigits[b.data()[i] & 0xF];
  }
  return out;
}

/// A golden literal with the whitespace (grouping for readability) removed.
std::string golden(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

class Golden : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!cdr::kHostLittleEndian) GTEST_SKIP() << "goldens are little-endian";
  }
};

cdr::WireBuf longlong_body(cdr::Arena& arena, std::int64_t v) {
  cdr::Writer w(arena);
  w.put_longlong(v);
  return w.seal();
}

giop::FtRequestContext ft_request() {
  giop::FtRequestContext ft;
  ft.client_id = "client.3";
  ft.retention_id = 7;
  ft.expiration_time = 60'000'000;
  return ft;
}

TEST_F(Golden, FtServiceContexts) {
  constexpr std::string_view kFtRequest =
      "01000000 09000000 636c6965 6e742e33 00000000 07000000 "
      "00879303 00000000";
  EXPECT_EQ(hex(cdr::WireBuf(ft_request().encode())),
            golden(kFtRequest));
  giop::FtGroupVersionContext gv;
  gv.object_group_ref_version = 3;
  constexpr std::string_view kFtGroupVersion = "01000000 03000000";
  EXPECT_EQ(hex(cdr::WireBuf(gv.encode())), golden(kFtGroupVersion));
}

TEST_F(Golden, GiopRequestWithFtRequestForCounterIncr) {
  cdr::Arena arena;
  const cdr::WireBuf body = longlong_body(arena, 5);
  giop::RequestHeader hdr;
  hdr.service_contexts.push_back(
      {static_cast<std::uint32_t>(giop::ServiceId::FtRequest),
       cdr::WireBuf(ft_request().encode())});
  hdr.request_id = 7;
  hdr.response_expected = true;
  hdr.object_key = cdr::WireBuf(cdr::Bytes{'c', 't', 'r'});
  hdr.operation = "incr";
  cdr::Writer w(arena);
  giop::encode_request_into(w, hdr, body.span());
  constexpr std::string_view kRequest =
      "47494f50 01000100 58000000 01000000 0d000000 20000000 "
      "01000000 09000000 636c6965 6e742e33 00000000 07000000 "
      "00879303 00000000 07000000 01000000 03000000 63747200 "
      "05000000 696e6372 00000000 00000000 00000000 05000000 "
      "00000000";
  EXPECT_EQ(hex(w.seal()), golden(kRequest));
}

TEST_F(Golden, GiopRepliesForCounterIncr) {
  cdr::Arena arena;
  const cdr::WireBuf result = longlong_body(arena, 6);
  constexpr std::string_view kSuccessReply =
      "47494f50 01000101 18000000 00000000 07000000 00000000 "
      "00000000 06000000 00000000";
  EXPECT_EQ(hex(orb::make_success_reply(arena, 7, result.span())),
            golden(kSuccessReply));
  constexpr std::string_view kExceptionReply =
      "47494f50 01000101 34000000 00000000 07000000 02000000 "
      "00000000 16000000 49444c3a 62616e6b 2f4e4f5f 46554e44 "
      "533a312e 30000000 04000000 01000000";
  EXPECT_EQ(hex(orb::make_exception_reply(
                arena, 7,
                orb::SystemException("IDL:bank/NO_FUNDS:1.0", 4,
                                     orb::Completion::No))),
            golden(kExceptionReply));
}

TEST_F(Golden, Envelope) {
  cdr::Arena arena;
  rep::Envelope env;
  env.kind = rep::Kind::StateUpdate;
  env.op_id.parent = rep::GlobalSeq{2, 41};
  env.op_id.op_seq = 3;
  env.target_group = "ctr";
  env.reply_group = "client.3";
  env.timestamp = 1'500'000;
  env.giop = longlong_body(arena, 6);
  env.state_version = 9;
  env.operation = "incr";
  env.update = longlong_body(arena, -1);
  env.node = 2;
  env.trace_id = 0xABC;
  env.parent_span = 17;
  cdr::Writer w(arena);
  rep::encode_envelope_into(w, env);
  constexpr std::string_view kEnvelope =
      "03000000 00000000 02000000 00000000 29000000 00000000 "
      "03000000 00000000 04000000 63747200 09000000 636c6965 "
      "6e742e33 00000000 01000000 00000000 60e31600 00000000 "
      "08000000 06000000 00000000 00000000 09000000 00000000 "
      "05000000 696e6372 00000000 08000000 ffffffff ffffffff "
      "00000000 02000000 00000000 00000000 00000000 00000000 "
      "00000000 00000000 00000000 00000000 01000000 00000000 "
      "bc0a0000 00000000 11000000 00000000";
  EXPECT_EQ(hex(w.seal()), golden(kEnvelope));
}

// Kind-specific layouts: an Invocation carries its client's watermark and
// expiration but none of the control fields (state version through
// digest); a SyncedMark carries its lineage.
TEST_F(Golden, InvocationAndSyncedMarkEnvelopes) {
  cdr::Arena arena;
  rep::Envelope inv;
  inv.kind = rep::Kind::Invocation;
  inv.op_id.parent = rep::GlobalSeq{0, 4};
  inv.op_id.op_seq = 7;
  inv.target_group = "ctr";
  inv.reply_group = "client.3";
  inv.timestamp = 1'500'000;
  inv.ack.parent = rep::GlobalSeq{0, 4};
  inv.ack.op_seq = 5;
  inv.expires = 61'500'000;
  cdr::Writer w(arena);
  rep::encode_envelope_into(w, inv);
  constexpr std::string_view kInvocation =
      "01000000 00000000 00000000 00000000 04000000 00000000 "
      "07000000 00000000 04000000 63747200 09000000 636c6965 "
      "6e742e33 00000000 01000000 00000000 60e31600 00000000 "
      "00000000 00000000 04000000 00000000 05000000 00000000 "
      "606aaa03 00000000 00000000 00";
  EXPECT_EQ(hex(w.seal()), golden(kInvocation));

  rep::Envelope mark;
  mark.kind = rep::Kind::SyncedMark;
  mark.target_group = "ctr";
  mark.node = 2;
  mark.state_version = 9;
  mark.lineage = rep::GlobalSeq{3, 1200};
  cdr::Writer m(arena);
  rep::encode_envelope_into(m, mark);
  constexpr std::string_view kMark =
      "06000000 00000000 00000000 00000000 00000000 00000000 "
      "00000000 00000000 04000000 63747200 01000000 00000000 "
      "01000000 00000000 00000000 00000000 00000000 00000000 "
      "09000000 00000000 01000000 00000000 00000000 00000000 "
      "02000000 00000000 00000000 00000000 00000000 00000000 "
      "03000000 00000000 b0040000 00000000 00000000 00000000 "
      "00";
  EXPECT_EQ(hex(m.seal()), golden(kMark));
}

TEST_F(Golden, JournalRecordFrame) {
  sim::Disk disk;
  dur::Journal journal(disk);
  dur::JournalRecord rec;
  rec.carrier = rep::GlobalSeq{3, 12};
  rec.sender = 1;
  rec.kind = static_cast<std::uint8_t>(rep::Kind::Invocation);
  rec.group = "ctr";
  rec.op.parent = rep::GlobalSeq{0, 4};
  rec.op.op_seq = 2;
  rec.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  ASSERT_TRUE(journal.append(rec));
  ASSERT_NE(disk.read("journal"), nullptr);
  constexpr std::string_view kJournal =
      "49000000 5e911c53 00000000 00000000 03000000 00000000 "
      "0c000000 00000000 01000000 01000000 04000000 63747200 "
      "00000000 00000000 04000000 00000000 02000000 00000000 "
      "05000000 deadbeef 01";
  EXPECT_EQ(hex(*disk.read("journal")), golden(kJournal));
}

TEST_F(Golden, MetaRecordFrame) {
  sim::Simulation sim(1);
  sim::Disk disk;
  dur::NodeDurability durability(sim, disk, 0, dur::DurParams{});
  durability.set_meta_provider([] { return dur::MetaSnapshot{5, 42}; });
  durability.sync_now();
  ASSERT_NE(disk.read("meta"), nullptr);
  constexpr std::string_view kMeta =
      "10000000 dde854fe 05000000 00000000 2a000000 00000000";
  EXPECT_EQ(hex(*disk.read("meta")), golden(kMeta));
}

TEST_F(Golden, Iogr) {
  ft::Iogr iogr;
  iogr.type_id = "IDL:Counter:1.0";
  iogr.group = "ctr";
  iogr.version = 2;
  iogr.profiles = {{0, {'c', 't', 'r'}}, {4, {'c', 't', 'r', '!'}}};
  constexpr std::string_view kIogr =
      "01000000 10000000 49444c3a 436f756e 7465723a 312e3000 "
      "04000000 63747200 02000000 02000000 00000000 03000000 "
      "63747200 04000000 04000000 63747221";
  EXPECT_EQ(hex(iogr.encode()), golden(kIogr));
}

TEST_F(Golden, FlightRecorderDump) {
  obs::FlightRecorder fr(4);
  fr.enable();
  obs::FlightRecord r;
  r.time = 10;
  r.end = 12;
  r.node = 3;
  r.stream = obs::FlightRecord::Stream::Span;
  r.kind = static_cast<std::uint8_t>(obs::SpanEvent::ClientSend);
  r.op = obs::OpRef{0, 4, 1};
  r.trace_id = 0xBEEF;
  r.span_id = 1;
  r.set_detail("group=ctr op=incr");
  fr.absorb(r);
  constexpr std::string_view kDump =
      "52465445 01000000 01000000 03000000 01000000 00000000 "
      "01000000 00000000 0a000000 00000000 0c000000 00000000 "
      "03000000 00000000 00000000 00000000 04000000 00000000 "
      "01000000 00000000 efbe0000 00000000 01000000 00000000 "
      "00000000 00000000 12000000 67726f75 703d6374 72206f70 "
      "3d696e63 7200";
  EXPECT_EQ(hex(fr.encode()), golden(kDump));
}

// Totem frames as the ring carries them: a token that carries retransmit
// requests, a traced control Data frame and a two-message Batch frame.
TEST_F(Golden, TotemFrames) {
  cdr::Arena arena;
  auto frame = [&](const totem::Packet& pkt) {
    cdr::Writer w(arena);
    totem::encode_packet_into(w, pkt);
    return hex(w.seal());
  };
  const totem::RingId ring{5, 1};

  totem::Packet token;
  token.kind = totem::MsgKind::Token;
  token.token.ring = ring;
  token.token.token_id = 42;
  token.token.seq = 17;
  token.token.accum_min = 12;
  token.token.safe_seq = 9;
  token.token.retransmit = {13, 15};
  token.token.dest = 2;
  constexpr std::string_view kToken =
      "02000000 00000000 05000000 00000000 01000000 00000000 "
      "2a000000 00000000 11000000 00000000 0c000000 00000000 "
      "09000000 00000000 02000000 00000000 0d000000 00000000 "
      "0f000000 00000000 02000000";
  EXPECT_EQ(frame(token), golden(kToken));
  cdr::Writer direct(arena);
  totem::encode_token_packet_into(direct, token.token);  // the send path
  EXPECT_EQ(hex(direct.seal()), golden(kToken));

  totem::Packet data;
  data.kind = totem::MsgKind::Data;
  data.data.ring = ring;
  data.data.seq = 18;
  data.data.origin = 3;
  data.data.flags = totem::kFlagControl | totem::kFlagTraced;
  data.data.group = totem::group_buf("ctr");
  data.data.payload = longlong_body(arena, 6);
  data.data.trace_id = 0xABC;
  data.data.parent_span = 17;
  constexpr std::string_view kData =
      "01000000 00000000 05000000 00000000 01000000 00000000 "
      "12000000 00000000 03000000 05000000 05000000 67637472 "
      "00000000 08000000 06000000 00000000 bc0a0000 00000000 "
      "11000000 00000000";
  EXPECT_EQ(frame(data), golden(kData));

  totem::Packet batch;
  batch.kind = totem::MsgKind::Batch;
  batch.batch.ring = ring;
  batch.batch.origin = 4;
  for (std::uint64_t seq : {19, 20}) {
    totem::DataMsg d;
    d.ring = ring;
    d.origin = 4;
    d.seq = seq;
    d.group = totem::group_buf("kv");
    d.payload = longlong_body(arena, static_cast<std::int64_t>(seq));
    batch.batch.msgs.push_back(std::move(d));
  }
  constexpr std::string_view kBatch =
      "06000000 00000000 05000000 00000000 01000000 04000000 "
      "02000000 00000000 13000000 00000000 00000000 04000000 "
      "676b7600 08000000 13000000 00000000 14000000 00000000 "
      "00000000 04000000 676b7600 08000000 14000000 00000000";
  EXPECT_EQ(frame(batch), golden(kBatch));
}

// The three-tier checkpoint of a small cold-passive Counter, captured off
// the ring as the snapshot a donor serves a joiner. The donor was promoted
// by a crash and is still holding execution while it installs its update
// backlog, so the snapshot carries client logs (client.3's last operation,
// retired by its state update and not yet acknowledged) *and* an
// unexecuted invocation log.
TEST_F(Golden, CounterCheckpointBlob) {
  rep::EngineParams ep;
  ep.update_apply_us_per_kib = 2 * kSecond;  // hold the new primary
  sim::Simulation sim(1);
  sim::Network net(sim, 6);
  totem::Fabric fabric(sim, net);
  rep::Domain domain(fabric, ep);
  fabric.start_all();
  ASSERT_TRUE(fabric.run_until_converged(2 * kSecond));
  sim.run_for(300 * kMillisecond);

  // Node 5 hosts nothing: its catch-all becomes a passive tap on the ring.
  std::vector<cdr::WireBuf> snapshots;
  fabric.group(5).subscribe_all([&](const totem::GroupMessage& m) {
    const rep::Envelope env = rep::decode_envelope(m.payload);
    if (env.kind == rep::Kind::Snapshot) snapshots.push_back(env.blob);
  });

  const rep::GroupConfig cfg{"ctr", rep::Style::ColdPassive};
  domain.host_on<app::Counter>(cfg, {0});
  sim.run_for(300 * kMillisecond);
  rep::GroupRef ctr = domain.ref(4, "ctr");
  ctr.call<std::int64_t>("incr", std::int64_t{5});
  ctr.call<std::int64_t>("incr", std::int64_t{2});
  for (sim::NodeId n : {1, 2}) {
    domain.engine(n).host(cfg, std::make_shared<app::Counter>(), false);
    sim.run_for(kSecond);
    ASSERT_TRUE(domain.engine(n).is_synced("ctr"));
  }
  ctr.call<std::int64_t>("incr", std::int64_t{1});  // cold backlog
  domain.ref(3, "ctr").call<std::int64_t>("incr", std::int64_t{4});

  fabric.crash(0);
  sim.run_for(kSecond);
  ASSERT_TRUE(domain.engine(1).is_primary("ctr"));
  auto held = ctr.invoke<std::int64_t>("incr", std::int64_t{3});
  sim.run_for(50 * kMillisecond);
  ASSERT_FALSE(held.ready());
  snapshots.clear();
  domain.engine(3).host(cfg, std::make_shared<app::Counter>(), false);
  sim.run_for(300 * kMillisecond);

  ASSERT_FALSE(snapshots.empty());
  const cdr::WireBuf& blob = snapshots.front();
  // Structure check: both logs really are in the golden.
  cdr::Decoder dec(blob);
  (void)dec.get_octet_seq();  // tier 1
  const cdr::WireBuf orb = dec.get_octet_seq_buf();
  cdr::Decoder orb_tier(orb);
  (void)orb_tier.get_ulonglong();  // ordered clock
  EXPECT_EQ(orb_tier.get_ulong(), 2u) << "client logs";
  const cdr::WireBuf infra = dec.get_octet_seq_buf();
  cdr::Decoder infra_tier(infra);
  for (int i = 0; i < 5; ++i) (void)infra_tier.get_ulonglong();  // versions
  EXPECT_GT(infra_tier.get_ulong(), 0u) << "invocation log";
  constexpr std::string_view kBlob =
      "10000000 0c000000 00000000 04000000 00000000 94000000 "
      "15273700 00000000 02000000 09000000 636c6965 6e742e33 "
      "00000000 00000000 00000000 00000000 04000000 00000000 "
      "01000000 00000000 01000000 00000000 00000000 00000000 "
      "04000000 00000000 01000000 00000000 e168bb03 00000000 "
      "00000000 09000000 636c6965 6e742e34 00000000 00000000 "
      "00000000 00000000 05000000 00000000 04000000 00000000 "
      "00000000 20010000 04000000 00000000 02000000 00000000 "
      "0b000000 00000000 00000000 00000000 00000000 00000000 "
      "01000000 d1000000 01000000 00000000 00000000 00000000 "
      "05000000 00000000 04000000 00000000 04000000 63747200 "
      "09000000 636c6965 6e742e34 00000000 01000000 00000000 "
      "15273700 00000000 00000000 00000000 05000000 00000000 "
      "04000000 00000000 15aeca03 00000000 64000000 47494f50 "
      "01000100 58000000 01000000 0d000000 20000000 01000000 "
      "09000000 636c6965 6e742e34 00000000 04000000 15aeca03 "
      "00000000 04000000 01000000 03000000 63747200 05000000 "
      "696e6372 00000000 00000000 00000000 03000000 00000000 "
      "00000000 00000000 02000000 00000000 0b000000 00000000 "
      "01000000 01000000";
  EXPECT_EQ(hex(blob), golden(kBlob));
}

}  // namespace
}  // namespace eternal
