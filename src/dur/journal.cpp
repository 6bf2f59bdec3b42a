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
  const std::size_t cut = first == entries_.end() ? disk_.size(kJournalFile)
                                                 : first->offset;
  if (!disk_.drop_front(kJournalFile, cut)) return 0;
  entries_.erase(entries_.begin(), first);
  for (Entry& e : entries_) e.offset -= cut;
  return cut;
}

namespace {

constexpr std::string_view kCheckpointPrefix = "ckpt-";
constexpr std::size_t kVersionDigits = 20;
constexpr std::size_t kVersionTail = 1 + kVersionDigits;  // "-" + digits

struct CheckpointName {
  std::string_view group;
  std::uint64_t version = 0;
};

/// The group and version of a checkpoint file named
/// "ckpt-<group>-<20-digit version>", parsed from the right because group
/// names may contain dashes; nullopt for any other name.
std::optional<CheckpointName> parse_checkpoint_name(std::string_view name) {
  if (name.size() < kCheckpointPrefix.size() + 1 + kVersionTail ||
      !name.starts_with(kCheckpointPrefix)) {
    return std::nullopt;
  }
  const std::size_t dash = name.size() - kVersionTail;
  if (name[dash] != '-') return std::nullopt;
  CheckpointName out;
  for (std::size_t i = dash + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    out.version = out.version * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  out.group = name.substr(kCheckpointPrefix.size(),
                          dash - kCheckpointPrefix.size());
  return out;
}

}  // namespace

CheckpointStore::CheckpointStore(sim::Disk& disk) : disk_(disk) {}

CheckpointStore::Index& CheckpointStore::index() {
  if (listed_) return index_;
  listed_ = true;
  // Names sort by zero-padded version within a group, so each group's
  // files arrive oldest first.
  for (const std::string& name : disk_.list(std::string(kCheckpointPrefix))) {
    const std::optional<CheckpointName> parsed = parse_checkpoint_name(name);
    if (!parsed) continue;
    auto it = index_.find(parsed->group);
    if (it == index_.end()) {
      it = index_.emplace(std::string(parsed->group), std::vector<Retained>{})
               .first;
    }
    it->second.push_back({parsed->version, std::nullopt, false});
  }
  return index_;
}

const std::string& CheckpointStore::file_name(std::string_view group,
                                              std::uint64_t version) {
  char tail[kVersionTail + 1];
  std::snprintf(tail, sizeof tail, "-%020llu",
                static_cast<unsigned long long>(version));
  name_.assign(kCheckpointPrefix);
  name_.append(group);
  name_.append(tail, kVersionTail);
  return name_;
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
  Index& files_by_group = index();
  if (!disk_.write_file(file_name(rec.group, rec.state_version),
                        w.written())) {
    return false;
  }
  auto it = files_by_group.find(rec.group);
  if (it == files_by_group.end()) {
    it = files_by_group.emplace(rec.group, std::vector<Retained>{}).first;
  }
  std::vector<Retained>& files = it->second;
  const auto at = std::lower_bound(
      files.begin(), files.end(), rec.state_version,
      [](const Retained& f, std::uint64_t v) { return f.version < v; });
  const Retained saved{rec.state_version, rec.position, true};
  if (at != files.end() && at->version == rec.state_version) {
    *at = saved;  // the same version cut again replaces the file
  } else {
    files.insert(at, saved);
  }
  // Retire all but the two newest.
  while (files.size() > 2) {
    disk_.remove(file_name(rec.group, files.front().version));
    files.erase(files.begin());
  }
  return true;
}

std::optional<CheckpointRecord> CheckpointStore::load(std::string_view group,
                                                      Retained& file) {
  std::optional<CheckpointRecord> rec =
      read_checkpoint(disk_, file_name(group, file.version));
  file.known = true;
  file.position =
      rec ? std::optional<std::uint64_t>(rec->position) : std::nullopt;
  return rec;
}

std::optional<CheckpointRecord> CheckpointStore::load_newest(
    const std::string& group, std::size_t* fallbacks) {
  const auto it = index().find(group);
  if (it == index_.end()) return std::nullopt;
  for (auto f = it->second.rbegin(); f != it->second.rend(); ++f) {
    if (auto rec = load(group, *f)) return rec;
    if (fallbacks) ++*fallbacks;
  }
  return std::nullopt;
}

std::vector<std::string> CheckpointStore::groups() const {
  // A const view must not build the index; list the disk instead.
  std::vector<std::string> out;
  for (const std::string& name : disk_.list(std::string(kCheckpointPrefix))) {
    const std::optional<CheckpointName> parsed = parse_checkpoint_name(name);
    if (parsed && std::find(out.begin(), out.end(), parsed->group) ==
                      out.end()) {
      out.emplace_back(parsed->group);
    }
  }
  return out;
}

std::uint64_t CheckpointStore::safe_position(std::string_view group,
                                             std::vector<Retained>& files) {
  if (files.size() < 2) return 0;
  // An earlier life's file is read once; later cuts use what it found.
  Retained& older = files[files.size() - 2];
  if (!older.known) load(group, older);
  return older.position.value_or(0);
}

std::uint64_t CheckpointStore::compaction_floor(
    std::uint64_t upper, const std::set<std::string>& journaled) {
  std::uint64_t floor = upper;
  for (auto& [group, files] : index()) {
    if (!files.empty()) floor = std::min(floor, safe_position(group, files));
  }
  for (const std::string& group : journaled) {
    const auto it = index_.find(group);
    if (it == index_.end() || it->second.empty()) return 0;
  }
  return floor;
}

}  // namespace eternal::dur
