// Write-ahead operation journal + checkpoint store over one sim::Disk, and
// the readers that are the only code parsing durable files.
//
// The journal is a single append-only file (kJournalFile) of framed
// JournalRecords. Appends buffer in the disk's unsynced tail; `sync`
// extends the durable prefix (group commit — the engine's sync timer calls
// it periodically, so a crash loses at most one sync interval of tail:
// the documented durability window). `append` is the only code that frames
// a journal record: it builds the frame in place in the journal's own
// arena and remembers each retained record's byte offset.
// `open` is the journal's one scan per life: it rebuilds that offset index
// from the file's intact prefix and drops a corrupt tail. `compact` then
// drops every record below a threshold *absolute index* as one byte range
// at a known offset, without reading a record back — record indices are
// stored inside each record, so positions referenced by checkpoints stay
// valid across compaction.
//
// The checkpoint store keeps the two newest checkpoints per group as
// atomic files ("ckpt-<group>-<version padded>"): the newest is what
// recovery loads, the previous is the fallback when the newest fails its
// CRC — the "missing newest checkpoint" corruption class. The store lists
// the disk once per life and then keeps a per-group index of its files in
// step with its own saves, remembering the journal position of every
// checkpoint it saves or reads: it reads a file left by an earlier life at
// most once, and a cut builds no file list or name strings.
//
// Steady state (append, sync, checkpoint cut) never parses the disk;
// `scan_journal`, `read_checkpoint` and `read_meta` below do, for recovery
// and for tools/recoverctl. They only read, so a damaged file stays as it
// is for forensics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "dur/record.hpp"
#include "sim/disk.hpp"

namespace eternal::dur {

inline constexpr char kJournalFile[] = "journal";
inline constexpr char kMetaFile[] = "meta";
/// Smallest slab of the arenas durable frames are built in (they grow on
/// demand).
inline constexpr std::size_t kFrameSlab = std::size_t{1} << 12;

struct ScanResult {
  std::vector<JournalRecord> records;  // intact prefix, file order
  std::vector<std::size_t> offsets;    // byte offset of each record's frame
  std::size_t bytes_scanned = 0;       // bytes covered by intact frames
  std::size_t tail_lost_bytes = 0;     // bytes past the last intact frame
  bool clean = true;                   // false = scan stopped mid-file
};

/// Walk the journal frame by frame; stop cleanly at the first truncated or
/// CRC-corrupt frame, returning the intact prefix plus forensic stats.
ScanResult scan_journal(const sim::Disk& disk);
/// One checkpoint file, or nullopt when absent, torn or corrupt.
std::optional<CheckpointRecord> read_checkpoint(const sim::Disk& disk,
                                                const std::string& file);
/// The meta file, or nullopt when absent, torn or corrupt.
std::optional<MetaRecord> read_meta(const sim::Disk& disk);

class Journal {
 public:
  explicit Journal(sim::Disk& disk);

  /// Scan the file once, truncate a corrupt tail, and resume appending at
  /// the index after the intact prefix. Returns the scan.
  ScanResult open();

  /// Frame and append one record; assigns the next absolute index into
  /// `rec.index`. Returns false (journal broken) when the disk is full.
  bool append(JournalRecord& rec);
  void sync();

  /// Drop all records with index < keep_from (rewrites the file; already-
  /// durable suffix stays durable). Returns bytes reclaimed.
  std::size_t compact(std::uint64_t keep_from);

  std::uint64_t next_index() const noexcept { return next_index_; }
  bool broken() const noexcept { return broken_; }
  /// Groups named by a record appended in this life or found by `open`.
  const std::set<std::string>& groups() const noexcept { return groups_; }

 private:
  struct Entry {
    std::uint64_t index = 0;
    std::size_t offset = 0;  // frame start within the file
  };

  sim::Disk& disk_;
  std::vector<Entry> entries_;  // retained records, file order
  std::set<std::string> groups_;
  std::uint64_t next_index_ = 0;
  bool broken_ = false;  // disk-full hit: stop appending, keep serving
  cdr::Arena arena_{kFrameSlab};  // frames are built here, then copied out
};

class CheckpointStore {
 public:
  explicit CheckpointStore(sim::Disk& disk);

  /// Persist atomically — the header, then the blob `write_blob` writes in
  /// place — and retire all but the two newest versions for the group.
  /// Returns false when the disk is full.
  bool save(const CheckpointHeader& rec, const BlobWriter& write_blob);

  /// Newest checkpoint for `group` that passes its CRC; falls back to the
  /// previous one (bumping `*fallbacks`) when the newest is corrupt.
  std::optional<CheckpointRecord> load_newest(const std::string& group,
                                              std::size_t* fallbacks);

  /// Groups that have at least one stored checkpoint.
  std::vector<std::string> groups() const;

  /// How far the journal may be compacted without losing any fallback
  /// replay: the minimum of `upper` and, per group, the journal position of
  /// its *older* retained checkpoint (0 when only one exists or the older
  /// is unreadable); 0 when a group in `journaled` has no checkpoint (it
  /// replays from scratch). Allocates nothing once the files it reads are
  /// known.
  std::uint64_t compaction_floor(std::uint64_t upper,
                                 const std::set<std::string>& journaled);

 private:
  /// One retained checkpoint file of a group.
  struct Retained {
    std::uint64_t version = 0;
    /// Journal position, once saved or read; nullopt after a read found
    /// the file unreadable.
    std::optional<std::uint64_t> position;
    bool known = false;  // saved or read: `position` is meaningful
  };
  /// Per group, its retained files, oldest version first.
  using Index = std::map<std::string, std::vector<Retained>, std::less<>>;

  /// The index, built from one disk listing on first use (files an earlier
  /// life left) and kept in step by save.
  Index& index();
  /// Writes "ckpt-<group>-<20-digit version>" into the scratch name.
  const std::string& file_name(std::string_view group, std::uint64_t version);
  std::optional<CheckpointRecord> load(std::string_view group, Retained& file);
  /// The older retained file's position (0 if none or unreadable).
  std::uint64_t safe_position(std::string_view group,
                              std::vector<Retained>& files);

  sim::Disk& disk_;
  Index index_;
  bool listed_ = false;
  std::string name_;  // scratch file name
  /// Largest checkpoint frame saved so far: the next cut reserves this
  /// much up front, so a steady-size checkpoint never grows its frame.
  std::size_t frame_reserve_ = kFrameSlab;
};

}  // namespace eternal::dur
