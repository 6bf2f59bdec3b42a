// Durability subsystem unit tests: simulated-disk semantics, record
// framing, journal corruption matrix (truncated tail / CRC flip / torn
// mid-record / disk full), checkpoint retention + fallback, and the
// compaction floor.
#include <gtest/gtest.h>

#include <algorithm>

#include "dur/durability.hpp"
#include "dur/journal.hpp"
#include "dur/record.hpp"
#include "obs/metrics.hpp"
#include "sim/disk.hpp"

namespace eternal::dur {
namespace {

JournalRecord make_record(std::uint64_t seq, const std::string& group,
                          std::size_t payload = 32) {
  JournalRecord r;
  r.carrier.epoch = 1;
  r.carrier.seq = seq;
  r.sender = 2;
  r.kind = 1;
  r.group = group;
  r.op.parent.epoch = 1;
  r.op.parent.seq = seq;
  r.op.op_seq = 7;
  r.payload.assign(payload, static_cast<std::uint8_t>(seq & 0xFF));
  return r;
}

// ---------------------------------------------------------------------------
// sim::Disk
// ---------------------------------------------------------------------------

TEST(Disk, UnsyncedTailDiesWithPowerCut) {
  sim::Disk disk;
  ASSERT_TRUE(disk.append("f", {1, 2, 3, 4}));
  disk.sync("f");
  ASSERT_TRUE(disk.append("f", {5, 6, 7, 8}));
  EXPECT_EQ(disk.size("f"), 8u);
  EXPECT_EQ(disk.synced_size("f"), 4u);
  disk.crash(/*torn=*/false);
  ASSERT_NE(disk.read("f"), nullptr);
  EXPECT_EQ(*disk.read("f"), (sim::DiskBytes{1, 2, 3, 4}));
  EXPECT_EQ(disk.synced_size("f"), 4u);
}

TEST(Disk, TornCrashKeepsPartialTail) {
  sim::Disk disk;
  ASSERT_TRUE(disk.append("f", {1, 2}));
  disk.sync("f");
  ASSERT_TRUE(disk.append("f", {3, 4, 5, 6}));
  disk.crash(/*torn=*/true);
  // Synced prefix intact + half of the 4-byte unsynced tail.
  EXPECT_EQ(*disk.read("f"), (sim::DiskBytes{1, 2, 3, 4}));
}

TEST(Disk, WriteFileIsAtomicAndDurable) {
  sim::Disk disk;
  ASSERT_TRUE(disk.write_file("meta", {9, 9}));
  ASSERT_TRUE(disk.write_file("meta", {1, 2, 3}));
  disk.crash(/*torn=*/true);
  EXPECT_EQ(*disk.read("meta"), (sim::DiskBytes{1, 2, 3}));
}

TEST(Disk, FullDiskRefusesWrites) {
  sim::Disk disk;
  disk.set_full(true);
  EXPECT_FALSE(disk.append("f", {1}));
  EXPECT_FALSE(disk.write_file("g", {1}));
  EXPECT_EQ(disk.read("f"), nullptr);
  disk.set_full(false);
  EXPECT_TRUE(disk.append("f", {1}));
}

TEST(Disk, ListIsSortedAndPrefixed) {
  sim::Disk disk;
  disk.write_file("b", {1});
  disk.write_file("a", {1});
  disk.write_file("ckpt-g-1", {1});
  EXPECT_EQ(disk.list(), (std::vector<std::string>{"a", "b", "ckpt-g-1"}));
  EXPECT_EQ(disk.list("ckpt-"), (std::vector<std::string>{"ckpt-g-1"}));
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

TEST(Record, JournalRecordRoundTrip) {
  const JournalRecord in = make_record(42, "counter");
  cdr::Writer enc;
  encode_journal_record_into(enc, in);
  cdr::Decoder dec(enc.written());
  const JournalRecord out = decode_journal_record(dec);
  EXPECT_EQ(out.index, in.index);
  EXPECT_EQ(out.carrier.epoch, in.carrier.epoch);
  EXPECT_EQ(out.carrier.seq, in.carrier.seq);
  EXPECT_EQ(out.sender, in.sender);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.group, in.group);
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(Record, CheckpointRecordRoundTrip) {
  CheckpointRecord in;
  in.group = "counter";
  in.style = 1;
  in.state_version = 128;
  in.digest = 0xDEADBEEFull;
  in.position = 77;
  in.max_epoch = 5;
  in.client_next_op = 900;
  in.blob = cdr::WireBuf(Bytes{1, 2, 3});
  cdr::Writer enc;
  encode_checkpoint_record_into(enc, in);
  cdr::Decoder dec(enc.written());
  const CheckpointRecord out = decode_checkpoint_record(dec);
  EXPECT_EQ(out.group, in.group);
  EXPECT_EQ(out.style, in.style);
  EXPECT_EQ(out.state_version, in.state_version);
  EXPECT_EQ(out.digest, in.digest);
  EXPECT_EQ(out.position, in.position);
  EXPECT_EQ(out.max_epoch, in.max_epoch);
  EXPECT_EQ(out.client_next_op, in.client_next_op);
  EXPECT_EQ(out.blob, in.blob);
}

TEST(Record, FrameRejectsCorruptPayload) {
  cdr::Writer enc;
  encode_meta_record_into(enc, MetaRecord{3, 4});
  Bytes framed;
  frame_append(framed, enc.written());
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(frame_parse(framed, 0, off, len));
  framed[framed.size() - 1] ^= 0xFF;  // flip a payload byte
  EXPECT_FALSE(frame_parse(framed, 0, off, len));
}

TEST(Record, FrameRejectsTruncatedHeader) {
  Bytes framed{1, 2, 3};  // shorter than the [len][crc] header
  std::size_t off = 0, len = 0;
  EXPECT_FALSE(frame_parse(framed, 0, off, len));
}

// ---------------------------------------------------------------------------
// Journal corruption matrix
// ---------------------------------------------------------------------------

TEST(Journal, AppendScanRoundTrip) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  for (std::uint64_t i = 0; i < 5; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
    EXPECT_EQ(r.index, i);
  }
  j.sync();
  const ScanResult s = scan_journal(disk);
  EXPECT_TRUE(s.clean);
  EXPECT_EQ(s.tail_lost_bytes, 0u);
  ASSERT_EQ(s.records.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(s.records[i].index, i);
    EXPECT_EQ(s.records[i].carrier.seq, i);
  }
}

TEST(Journal, TruncatedTailStopsCleanly) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  for (std::uint64_t i = 0; i < 4; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
  }
  j.sync();
  // Chop mid-record: the scanner keeps the intact prefix. (A subsequent
  // open() would truncate the garbage — scan directly to observe it.)
  disk.truncate("journal", disk.size("journal") - 7);
  const ScanResult s = scan_journal(disk);
  EXPECT_FALSE(s.clean);
  EXPECT_EQ(s.records.size(), 3u);
  EXPECT_GT(s.tail_lost_bytes, 0u);
}

TEST(Journal, CrcFlipStopsScanAtCorruptRecord) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  std::size_t boundary = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
    if (i == 2) boundary = disk.size("journal");
  }
  j.sync();
  // Flip one byte inside record 3; records 0-2 stay readable.
  ASSERT_TRUE(disk.corrupt_byte("journal", boundary + 12));
  const ScanResult s = scan_journal(disk);
  EXPECT_FALSE(s.clean);
  EXPECT_EQ(s.records.size(), 3u);
}

TEST(Journal, TornCrashThenOpenTruncatesGarbageTail) {
  sim::Disk disk;
  {
    Journal j(disk);
    j.open();
    for (std::uint64_t i = 0; i < 3; ++i) {
      JournalRecord r = make_record(i, "g");
      ASSERT_TRUE(j.append(r));
    }
    j.sync();
    JournalRecord r = make_record(3, "g", 256);  // big → tail torn mid-record
    ASSERT_TRUE(j.append(r));
  }
  disk.crash(/*torn=*/true);
  // The new life must not append after a garbage partial record: open()
  // truncates to the intact prefix so later records stay reachable.
  Journal j2(disk);
  j2.open();
  EXPECT_EQ(j2.next_index(), 3u);
  JournalRecord r = make_record(9, "g");
  ASSERT_TRUE(j2.append(r));
  j2.sync();
  const ScanResult s = scan_journal(disk);
  EXPECT_TRUE(s.clean);
  ASSERT_EQ(s.records.size(), 4u);
  EXPECT_EQ(s.records.back().index, 3u);
  EXPECT_EQ(s.records.back().carrier.seq, 9u);
}

TEST(Journal, CompactKeepsAbsoluteIndices) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  for (std::uint64_t i = 0; i < 10; ++i) {
    JournalRecord r = make_record(i, "g");
    ASSERT_TRUE(j.append(r));
  }
  j.sync();
  const std::size_t before = disk.size("journal");
  EXPECT_GT(j.compact(6), 0u);
  EXPECT_LT(disk.size("journal"), before);
  const ScanResult s = scan_journal(disk);
  ASSERT_EQ(s.records.size(), 4u);
  EXPECT_EQ(s.records.front().index, 6u);
  EXPECT_EQ(j.next_index(), 10u);
}

TEST(Journal, DiskFullMarksBroken) {
  sim::Disk disk;
  Journal j(disk);
  j.open();
  JournalRecord a = make_record(0, "g");
  ASSERT_TRUE(j.append(a));
  disk.set_full(true);
  JournalRecord b = make_record(1, "g");
  EXPECT_FALSE(j.append(b));
  EXPECT_TRUE(j.broken());
  disk.set_full(false);
  j.sync();
  EXPECT_EQ(scan_journal(disk).records.size(), 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint store
// ---------------------------------------------------------------------------

CheckpointRecord make_checkpoint(const std::string& group,
                                 std::uint64_t version, std::uint64_t pos) {
  CheckpointRecord c;
  c.group = group;
  c.state_version = version;
  c.digest = version * 1000;
  c.position = pos;
  c.blob = cdr::WireBuf(Bytes{static_cast<std::uint8_t>(version)});
  return c;
}

TEST(CheckpointStore, RetainsTwoNewest) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 20, 11)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 30, 17)));
  EXPECT_EQ(disk.list("ckpt-g-").size(), 2u);
  std::size_t fb = 0;
  const auto rec = store.load_newest("g", &fb);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state_version, 30u);
  EXPECT_EQ(fb, 0u);
}

TEST(CheckpointStore, FallsBackWhenNewestCorrupt) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 20, 11)));
  const auto files = disk.list("ckpt-g-");
  ASSERT_EQ(files.size(), 2u);
  ASSERT_TRUE(disk.corrupt_byte(files.back(), 10));  // newest (sorted last)
  std::size_t fb = 0;
  const auto rec = store.load_newest("g", &fb);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state_version, 10u);
  EXPECT_EQ(fb, 1u);
}

TEST(CheckpointStore, BothCorruptMeansFullReplay) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("g", 20, 11)));
  for (const auto& f : disk.list("ckpt-g-")) {
    ASSERT_TRUE(disk.corrupt_byte(f, 10));
  }
  std::size_t fb = 0;
  EXPECT_FALSE(store.load_newest("g", &fb).has_value());
  EXPECT_EQ(fb, 2u);
}

TEST(CheckpointStore, SafePositionsTrackOlderRetained) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("a", 10, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("a", 20, 11)));
  ASSERT_TRUE(store.save(make_checkpoint("b", 4, 9)));
  const auto safe = store.safe_positions();
  ASSERT_EQ(safe.size(), 2u);
  EXPECT_EQ(safe.at("a"), 5u);   // older of the two retained
  EXPECT_EQ(safe.at("b"), 0u);   // single checkpoint pins the whole tape
  // A later life reads the files back: same answer, and an unreadable
  // older checkpoint pins the whole tape too.
  ASSERT_TRUE(store.save(make_checkpoint("c", 1, 3)));
  ASSERT_TRUE(store.save(make_checkpoint("c", 2, 7)));
  ASSERT_TRUE(disk.corrupt_byte(disk.list("ckpt-c-").front(), 10));
  const auto reread = CheckpointStore(disk).safe_positions();
  ASSERT_EQ(reread.size(), 3u);
  EXPECT_EQ(reread.at("a"), 5u);
  EXPECT_EQ(reread.at("b"), 0u);
  EXPECT_EQ(reread.at("c"), 0u);
}

TEST(CheckpointStore, GroupNamesWithDashesParse) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("multi-part-name", 3, 1)));
  const auto groups = store.groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], "multi-part-name");
}

// A group whose name extends another's with a dash ("a-b" vs "a") shares
// the other's file-name prefix; each group must still see only its own
// files when retiring, loading and computing compaction floors.
TEST(CheckpointStore, GroupPrefixDoesNotMatchDashedNeighbour) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(store.save(make_checkpoint("a-b", 1, 3)));
  ASSERT_TRUE(store.save(make_checkpoint("a-b", 2, 5)));
  ASSERT_TRUE(store.save(make_checkpoint("a", 7, 9)));

  EXPECT_EQ(disk.list().size(), 3u);  // nothing of either group retired
  const auto a = store.load_newest("a", nullptr);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group, "a");
  EXPECT_EQ(a->state_version, 7u);
  const auto ab = store.load_newest("a-b", nullptr);
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->state_version, 2u);
  EXPECT_EQ(store.groups(), (std::vector<std::string>{"a", "a-b"}));
  EXPECT_EQ(store.safe_positions(),
            (std::map<std::string, std::uint64_t>{{"a", 0}, {"a-b", 3}}));
}

// ---------------------------------------------------------------------------
// Compaction floor
// ---------------------------------------------------------------------------

// A group with journaled records but no checkpoint replays from scratch,
// so another group's cuts must not compact its records away.
TEST(NodeDurability, UncheckpointedGroupPinsCompactionFloor) {
  sim::Simulation sim(1);
  sim::Disk disk;
  NodeDurability life1(sim, disk, 0, DurParams{});
  for (std::uint64_t i = 0; i < 5; ++i) life1.append(make_record(i, "b"));
  for (std::uint64_t v = 1; v <= 3; ++v) {
    life1.append(make_record(10 + v, "a"));
    life1.cut_checkpoint(make_checkpoint("a", v, 0));
  }
  life1.close();

  NodeDurability life2(sim, disk, 0, DurParams{});
  const RecoveredNode rn = life2.recover();
  const auto b_records =
      std::count_if(rn.records.begin(), rn.records.end(),
                    [](const JournalRecord& r) { return r.group == "b"; });
  EXPECT_EQ(b_records, 5);
}

// Compaction drops a byte range without re-encoding: the journal holds
// exactly the freshly framed records at or above the floor. A second
// life over the same disk — reopened the attach way or through recover(),
// so the first life's checkpoints are read back — compacts to the same
// bytes.
TEST(NodeDurability, CompactionKeepsExactlyTheFramedSuffix) {
  constexpr std::uint64_t kRounds = 6, kPerRound = 3;
  auto round = [](NodeDurability& d, std::uint64_t r) {
    for (std::uint64_t k = 0; k < kPerRound; ++k) {
      d.append(make_record(r * kPerRound + k, "a", 16 + k));
    }
    d.cut_checkpoint(make_checkpoint("a", r + 1, 0));
  };
  sim::Simulation sim(1);

  sim::Disk disk;
  NodeDurability one_life(sim, disk, 0, DurParams{});
  for (std::uint64_t r = 0; r < kRounds; ++r) round(one_life, r);

  // The floor is the older retained checkpoint's position: the cut after
  // round kRounds - 2.
  const std::uint64_t keep_from = (kRounds - 1) * kPerRound;
  Bytes expected;
  std::size_t appended = 0;
  for (std::uint64_t i = 0; i < kRounds * kPerRound; ++i) {
    JournalRecord rec = make_record(i, "a", 16 + i % kPerRound);
    rec.index = i;
    cdr::Writer w;
    encode_journal_record_into(w, rec);
    Bytes framed;
    frame_append(framed, w.written());
    appended += framed.size();
    if (i >= keep_from) {
      expected.insert(expected.end(), framed.begin(), framed.end());
    }
  }
  ASSERT_NE(disk.read(kJournalFile), nullptr);
  EXPECT_EQ(*disk.read(kJournalFile), expected);
  EXPECT_EQ(
      obs::Registry::global().counter("dur.compacted_bytes{node=0}").value(),
      appended - expected.size());

  for (const bool via_recover : {false, true}) {
    sim::Disk split;
    const sim::NodeId node = via_recover ? 2 : 1;
    {
      NodeDurability life1(sim, split, node, DurParams{});
      for (std::uint64_t r = 0; r < kRounds / 2; ++r) round(life1, r);
    }
    NodeDurability life2(sim, split, node, DurParams{});
    if (via_recover) {
      life2.recover();
    } else {
      life2.journal().open();
    }
    for (std::uint64_t r = kRounds / 2; r < kRounds; ++r) round(life2, r);
    ASSERT_NE(split.read(kJournalFile), nullptr);
    EXPECT_EQ(*split.read(kJournalFile), expected)
        << (via_recover ? "recover()" : "open()");
  }
}

}  // namespace
}  // namespace eternal::dur
