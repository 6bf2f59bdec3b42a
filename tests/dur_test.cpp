// Durability subsystem unit tests: simulated-disk semantics, the CRC and
// record framing, journal corruption matrix (truncated tail / CRC flip / torn
// mid-record / disk full), checkpoint retention + fallback, and the
// compaction floor.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

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
  r.payload =
      cdr::WireBuf(Bytes(payload, static_cast<std::uint8_t>(seq & 0xFF)));
  return r;
}

/// The frame `encode` writes, built the way the durable writers build it.
template <typename Encode>
Bytes framed(Encode encode) {
  cdr::Writer w;
  const FrameStart frame = begin_frame(w);
  encode(w);
  end_frame(w, frame);
  return Bytes(w.written().begin(), w.written().end());
}

/// Writes a test checkpoint's literal blob.
BlobWriter blob_of(const CheckpointRecord& c) {
  return [&c](cdr::Writer& w) { w.put_raw(c.blob.span()); };
}

/// The bytewise CRC-32 the slicing-by-8 one must reproduce: the textbook
/// bit loop, with no table.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
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
  ASSERT_TRUE(disk.write_file("meta", sim::DiskBytes{9, 9}));
  ASSERT_TRUE(disk.write_file("meta", sim::DiskBytes{1, 2, 3}));
  disk.crash(/*torn=*/true);
  EXPECT_EQ(*disk.read("meta"), (sim::DiskBytes{1, 2, 3}));
}

TEST(Disk, FullDiskRefusesWrites) {
  sim::Disk disk;
  disk.set_full(true);
  EXPECT_FALSE(disk.append("f", {1}));
  EXPECT_FALSE(disk.write_file("g", sim::DiskBytes{1}));
  EXPECT_EQ(disk.read("f"), nullptr);
  disk.set_full(false);
  EXPECT_TRUE(disk.append("f", {1}));
}

TEST(Disk, ListIsSortedAndPrefixed) {
  sim::Disk disk;
  disk.write_file("b", sim::DiskBytes{1});
  disk.write_file("a", sim::DiskBytes{1});
  disk.write_file("ckpt-g-1", sim::DiskBytes{1});
  EXPECT_EQ(disk.list(), (std::vector<std::string>{"a", "b", "ckpt-g-1"}));
  EXPECT_EQ(disk.list("ckpt-"), (std::vector<std::string>{"ckpt-g-1"}));
}

TEST(Disk, WriteFileOverwritesShorterAndLongerExactly) {
  sim::Disk disk;
  const sim::DiskBytes first{1, 2, 3, 4, 5, 6};
  const sim::DiskBytes shorter{7, 8};
  const sim::DiskBytes longer{9, 10, 11, 12, 13, 14, 15, 16, 17};
  for (const sim::DiskBytes* bytes : {&first, &shorter, &longer}) {
    ASSERT_TRUE(disk.write_file("f", *bytes));
    EXPECT_EQ(*disk.read("f"), *bytes);
    EXPECT_EQ(disk.size("f"), bytes->size());
    EXPECT_EQ(disk.synced_size("f"), bytes->size());
  }
}

// A rewrite no larger than the file copies into the buffer it already has:
// the per-tick meta rewrite allocates nothing.
TEST(Disk, WriteFileReusesTheFileBuffer) {
  sim::Disk disk;
  ASSERT_TRUE(disk.write_file("meta", sim::DiskBytes(24, 0xAA)));
  const std::uint8_t* buffer = disk.read("meta")->data();
  ASSERT_TRUE(disk.write_file("meta", sim::DiskBytes(24, 0xBB)));
  ASSERT_TRUE(disk.write_file("meta", sim::DiskBytes(16, 0xCC)));
  EXPECT_EQ(disk.read("meta")->data(), buffer);
  EXPECT_EQ(*disk.read("meta"), sim::DiskBytes(16, 0xCC));
}

TEST(Disk, WriteFileIsDurableAtOnceAcrossTornCrash) {
  sim::Disk disk;
  ASSERT_TRUE(disk.append("f", sim::DiskBytes{1, 2, 3, 4}));  // unsynced
  ASSERT_TRUE(disk.write_file("f", sim::DiskBytes{5, 6, 7}));
  ASSERT_TRUE(disk.write_file("g", sim::DiskBytes{8, 9}));
  disk.crash(/*torn=*/true);
  EXPECT_EQ(*disk.read("f"), (sim::DiskBytes{5, 6, 7}));
  EXPECT_EQ(*disk.read("g"), (sim::DiskBytes{8, 9}));
}

TEST(Disk, FullDiskWriteFileWritesNothing) {
  sim::Disk disk;
  ASSERT_TRUE(disk.write_file("f", sim::DiskBytes{1, 2, 3}));
  disk.set_full(true);
  EXPECT_FALSE(disk.write_file("f", sim::DiskBytes{4, 5}));
  EXPECT_FALSE(disk.write_file("g", sim::DiskBytes{6}));
  EXPECT_EQ(*disk.read("f"), (sim::DiskBytes{1, 2, 3}));
  EXPECT_EQ(disk.read("g"), nullptr);
  EXPECT_EQ(disk.list(), (std::vector<std::string>{"f"}));
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
  encode_checkpoint_record_into(enc, in, blob_of(in));
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
  Bytes frame = framed(
      [](cdr::Writer& w) { encode_meta_record_into(w, MetaRecord{3, 4}); });
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(frame_parse(frame, 0, off, len));
  frame[frame.size() - 1] ^= 0xFF;  // flip a payload byte
  EXPECT_FALSE(frame_parse(frame, 0, off, len));
}

TEST(Record, FrameRejectsTruncatedHeader) {
  Bytes framed{1, 2, 3};  // shorter than the [len][crc] header
  std::size_t off = 0, len = 0;
  EXPECT_FALSE(frame_parse(framed, 0, off, len));
}

TEST(Crc32, KnownAnswer) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(kCheck.data()),
                  kCheck.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// Slicing-by-8 reads the input a word pair at a time; every length (whole
// words plus a 0-7 byte tail) at every start misalignment must agree with
// the bytewise definition.
TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  constexpr std::size_t kBig = std::size_t{64} << 10;
  Bytes buf(kBig + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (std::uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 300; ++len) lengths.push_back(len);
  lengths.push_back(kBig);
  for (std::size_t shift = 0; shift < 8; ++shift) {
    for (const std::size_t len : lengths) {
      const std::uint8_t* p = buf.data() + shift;
      ASSERT_EQ(crc32(p, len), reference_crc32(p, len))
          << "len=" << len << " shift=" << shift;
    }
  }
}

// A single flipped bit in any byte lane of the 8-byte stride (and in the
// tail) makes the frame unreadable.
TEST(Record, FrameRejectsBitFlipInEveryLane) {
  const Bytes good = framed([](cdr::Writer& w) {
    for (std::uint8_t i = 0; i < 67; ++i) w.put_octet(i);
  });
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(frame_parse(good, 0, off, len));
  ASSERT_EQ(len, 67u);
  for (std::size_t at = off; at < good.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = good;
      bad[at] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(frame_parse(bad, 0, off, len))
          << "byte " << at - 8 << " (lane " << (at - 8) % 8 << ") bit "
          << bit;
    }
  }
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

bool save(CheckpointStore& store, const CheckpointRecord& c) {
  return store.save(c, blob_of(c));
}

void cut(NodeDurability& d, const CheckpointRecord& c) {
  d.cut_checkpoint(c, blob_of(c));
}

TEST(CheckpointStore, RetainsTwoNewest) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(save(store, make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(save(store, make_checkpoint("g", 20, 11)));
  ASSERT_TRUE(save(store, make_checkpoint("g", 30, 17)));
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
  ASSERT_TRUE(save(store, make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(save(store, make_checkpoint("g", 20, 11)));
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
  ASSERT_TRUE(save(store, make_checkpoint("g", 10, 5)));
  ASSERT_TRUE(save(store, make_checkpoint("g", 20, 11)));
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
  ASSERT_TRUE(save(store, make_checkpoint("a", 10, 5)));
  ASSERT_TRUE(save(store, make_checkpoint("a", 20, 11)));
  ASSERT_TRUE(save(store, make_checkpoint("b", 4, 9)));
  // b's single checkpoint pins the whole tape.
  EXPECT_EQ(store.compaction_floor(100, {"a", "b"}), 0u);
  ASSERT_TRUE(save(store, make_checkpoint("b", 8, 13)));
  // The older of each group's two retained checkpoints: a at 5, b at 9.
  EXPECT_EQ(store.compaction_floor(100, {"a", "b"}), 5u);
  EXPECT_EQ(store.compaction_floor(4, {"a", "b"}), 4u);
  // A journaled group with no checkpoint replays from scratch.
  EXPECT_EQ(store.compaction_floor(100, {"a", "b", "quiet"}), 0u);
  // A later life reads the files back: same answer, and an unreadable
  // older checkpoint pins the whole tape too.
  EXPECT_EQ(CheckpointStore(disk).compaction_floor(100, {"a", "b"}), 5u);
  ASSERT_TRUE(save(store, make_checkpoint("c", 1, 3)));
  ASSERT_TRUE(save(store, make_checkpoint("c", 2, 7)));
  ASSERT_TRUE(disk.corrupt_byte(disk.list("ckpt-c-").front(), 10));
  EXPECT_EQ(CheckpointStore(disk).compaction_floor(100, {"a", "b"}), 0u);
}

TEST(CheckpointStore, GroupNamesWithDashesParse) {
  sim::Disk disk;
  CheckpointStore store(disk);
  ASSERT_TRUE(save(store, make_checkpoint("multi-part-name", 3, 1)));
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
  ASSERT_TRUE(save(store, make_checkpoint("a-b", 1, 3)));
  ASSERT_TRUE(save(store, make_checkpoint("a-b", 2, 5)));
  ASSERT_TRUE(save(store, make_checkpoint("a", 7, 9)));

  EXPECT_EQ(disk.list().size(), 3u);  // nothing of either group retired
  const auto a = store.load_newest("a", nullptr);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->group, "a");
  EXPECT_EQ(a->state_version, 7u);
  const auto ab = store.load_newest("a-b", nullptr);
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->state_version, 2u);
  EXPECT_EQ(store.groups(), (std::vector<std::string>{"a", "a-b"}));
  // a-b's older checkpoint sits at 3; a's files are a's alone.
  ASSERT_TRUE(save(store, make_checkpoint("a", 8, 11)));
  EXPECT_EQ(store.compaction_floor(100, {"a", "a-b"}), 3u);
  ASSERT_TRUE(save(store, make_checkpoint("a-b", 3, 15)));
  EXPECT_EQ(store.compaction_floor(100, {"a", "a-b"}), 5u);
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
    cut(life1, make_checkpoint("a", v, 0));
  }
  life1.close();

  NodeDurability life2(sim, disk, 0, DurParams{});
  const RecoveredNode rn = life2.recover();
  const auto b_records =
      std::count_if(rn.records.begin(), rn.records.end(),
                    [](const JournalRecord& r) { return r.group == "b"; });
  EXPECT_EQ(b_records, 5);
}

// The meta file is rewritten in place on every sync: one file, holding
// the newest record.
TEST(NodeDurability, MetaRewritesKeepOneNewestFile) {
  sim::Simulation sim(1);
  sim::Disk disk;
  NodeDurability d(sim, disk, 0, DurParams{});
  MetaSnapshot snap;
  d.set_meta_provider([&snap] { return snap; });
  for (std::uint64_t i = 1; i <= 5; ++i) {
    snap = MetaSnapshot{i, 100 * i};
    d.sync_now();
    EXPECT_EQ(disk.list(), (std::vector<std::string>{kMetaFile}));
    const std::optional<MetaRecord> m = read_meta(disk);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->max_epoch, i);
    EXPECT_EQ(m->client_next_op, 100 * i);
  }
  EXPECT_EQ(*disk.read(kMetaFile), framed([](cdr::Writer& w) {
              encode_meta_record_into(w, MetaRecord{5, 500});
            }));
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
    cut(d, make_checkpoint("a", r + 1, 0));
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
    const Bytes frame =
        framed([&rec](cdr::Writer& w) { encode_journal_record_into(w, rec); });
    appended += frame.size();
    if (i >= keep_from) {
      expected.insert(expected.end(), frame.begin(), frame.end());
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
