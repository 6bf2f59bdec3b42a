#include "dur/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace eternal::dur {

namespace {

/// Decode the single-frame file `name`, or nullopt when it is absent,
/// torn, corrupt or not a `Record` payload.
template <typename Record>
std::optional<Record> read_framed(const sim::Disk& disk,
                                  const std::string& name,
                                  Record (*decode)(cdr::Decoder&)) {
  const sim::DiskBytes* data = disk.read(name);
  if (!data) return std::nullopt;
  std::size_t off = 0, len = 0;
  if (!frame_parse(*data, 0, off, len)) return std::nullopt;
  cdr::Decoder dec(std::span<const std::uint8_t>(data->data() + off, len));
  try {
    return decode(dec);
  } catch (const cdr::MarshalError&) {
    return std::nullopt;
  }
}

}  // namespace

ScanResult scan_journal(const sim::Disk& disk) {
  ScanResult out;
  const sim::DiskBytes* data = disk.read(kJournalFile);
  if (!data) return out;
  std::size_t at = 0;
  while (at < data->size()) {
    std::size_t off = 0, len = 0;
    if (!frame_parse(*data, at, off, len)) break;
    cdr::Decoder dec(std::span<const std::uint8_t>(data->data() + off, len));
    try {
      out.records.push_back(decode_journal_record(dec));
    } catch (const cdr::MarshalError&) {
      break;  // frame intact but payload garbage: stop at the prefix
    }
    out.offsets.push_back(at);
    at = off + len;
  }
  out.bytes_scanned = at;
  out.tail_lost_bytes = data->size() - at;
  out.clean = out.tail_lost_bytes == 0;
  return out;
}

std::optional<CheckpointRecord> read_checkpoint(const sim::Disk& disk,
                                                const std::string& file) {
  return read_framed(disk, file, decode_checkpoint_record);
}

std::optional<MetaRecord> read_meta(const sim::Disk& disk) {
  return read_framed(disk, kMetaFile, decode_meta_record);
}

Journal::Journal(sim::Disk& disk) : disk_(disk) {}

ScanResult Journal::open() {
  ScanResult s = scan_journal(disk_);
  if (!s.clean) {
    // Drop the corrupt tail before appending the new life's records —
    // otherwise the next scan would stop at the old garbage forever.
    disk_.truncate(kJournalFile, s.bytes_scanned);
    disk_.sync(kJournalFile);
  }
  entries_.clear();
  groups_.clear();
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    entries_.push_back({s.records[i].index, s.offsets[i]});
    groups_.insert(s.records[i].group);
  }
  next_index_ = s.records.empty() ? 0 : s.records.back().index + 1;
  broken_ = false;
  return s;
}

bool Journal::append(JournalRecord& rec) {
  if (broken_) return false;
  rec.index = next_index_;
  cdr::Writer w(arena_);
  const FrameStart frame = begin_frame(w);
  encode_journal_record_into(w, rec);
  end_frame(w, frame);
  const std::size_t offset = disk_.size(kJournalFile);
  if (!disk_.append(kJournalFile, w.written().data(), w.size())) {
    broken_ = true;  // disk full: the journal stops, the engine keeps going
    return false;
  }
  entries_.push_back({next_index_, offset});
  groups_.insert(rec.group);
  ++next_index_;
  return true;
}

void Journal::sync() { disk_.sync(kJournalFile); }

std::size_t Journal::compact(std::uint64_t keep_from) {
  const auto first = std::find_if(
      entries_.begin(), entries_.end(),
      [keep_from](const Entry& e) { return e.index >= keep_from; });
  if (first == entries_.begin()) return 0;
  const sim::DiskBytes& data = *disk_.read(kJournalFile);
  const std::size_t cut = first == entries_.end() ? data.size() : first->offset;
  // A copy: write_file assigns into the file's own buffer, so a span of
  // that buffer would alias it.
  const sim::DiskBytes kept(data.begin() + static_cast<std::ptrdiff_t>(cut),
                            data.end());
  if (!disk_.write_file(kJournalFile, kept)) return 0;
  entries_.erase(entries_.begin(), first);
  for (Entry& e : entries_) e.offset -= cut;
  return cut;
}

namespace {

constexpr std::string_view kCheckpointPrefix = "ckpt-";
constexpr std::size_t kVersionTail = 21;  // "-" + 20 zero-padded digits

/// The group of a checkpoint file named "ckpt-<group>-<20-digit version>",
/// parsed from the right because group names may contain dashes; nullopt
/// for any other name.
std::optional<std::string> checkpoint_group(const std::string& name) {
  if (name.size() < kCheckpointPrefix.size() + 1 + kVersionTail ||
      !name.starts_with(kCheckpointPrefix)) {
    return std::nullopt;
  }
  const std::size_t dash = name.size() - kVersionTail;
  if (name[dash] != '-') return std::nullopt;
  for (std::size_t i = dash + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
  }
  return name.substr(kCheckpointPrefix.size(),
                     dash - kCheckpointPrefix.size());
}

}  // namespace

CheckpointStore::CheckpointStore(sim::Disk& disk) : disk_(disk) {}

std::vector<std::string> CheckpointStore::files_of(
    const std::string& group) const {
  // The prefix also matches groups that extend `group` with a dash ("a"
  // vs "a-b"); keep only the files whose parsed group is exactly `group`.
  std::vector<std::string> files =
      disk_.list(std::string(kCheckpointPrefix) + group + "-");
  std::erase_if(files, [&](const std::string& name) {
    return checkpoint_group(name) != group;
  });
  return files;
}

std::string CheckpointStore::file_name(const std::string& group,
                                       std::uint64_t version) {
  char tail[40];
  std::snprintf(tail, sizeof tail, "-%020llu",
                static_cast<unsigned long long>(version));
  return std::string(kCheckpointPrefix) + group + tail;
}

bool CheckpointStore::save(const CheckpointHeader& rec,
                           const BlobWriter& write_blob) {
  // A checkpoint frame is large and written only at a cut, so its slab
  // goes back to the shared pool afterwards instead of staying pinned to
  // this node.
  cdr::Arena arena(kFrameSlab);
  cdr::Writer w(arena, frame_reserve_);
  const FrameStart frame = begin_frame(w);
  encode_checkpoint_record_into(w, rec, write_blob);
  end_frame(w, frame);
  frame_reserve_ = std::max(frame_reserve_, w.size());
  const std::string name = file_name(rec.group, rec.state_version);
  if (!disk_.write_file(name, w.written())) return false;
  positions_[name] = rec.position;
  // Retire all but the two newest (names sort by zero-padded version).
  std::vector<std::string> files = files_of(rec.group);
  while (files.size() > 2) {
    disk_.remove(files.front());
    positions_.erase(files.front());
    files.erase(files.begin());
  }
  return true;
}

std::optional<CheckpointRecord> CheckpointStore::load_file(
    const std::string& name) {
  std::optional<CheckpointRecord> rec = read_checkpoint(disk_, name);
  positions_[name] =
      rec ? std::optional<std::uint64_t>(rec->position) : std::nullopt;
  return rec;
}

std::optional<CheckpointRecord> CheckpointStore::load_newest(
    const std::string& group, std::size_t* fallbacks) {
  std::vector<std::string> files = files_of(group);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (auto rec = load_file(*it)) return rec;
    if (fallbacks) ++*fallbacks;
  }
  return std::nullopt;
}

std::vector<std::string> CheckpointStore::groups() const {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const std::string& name : disk_.list(std::string(kCheckpointPrefix))) {
    std::optional<std::string> group = checkpoint_group(name);
    if (group && seen.insert(*group).second) out.push_back(std::move(*group));
  }
  return out;
}

std::map<std::string, std::uint64_t> CheckpointStore::safe_positions() {
  std::map<std::string, std::uint64_t> out;
  for (const std::string& group : groups()) {
    std::vector<std::string> files = files_of(group);
    if (files.size() < 2) {
      out[group] = 0;
      continue;
    }
    // An earlier life's file is read once; later cuts use the memo.
    const std::string& older = files[files.size() - 2];
    if (!positions_.contains(older)) load_file(older);
    out[group] = positions_.at(older).value_or(0);
  }
  return out;
}

}  // namespace eternal::dur
