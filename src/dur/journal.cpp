#include "dur/journal.hpp"

#include <algorithm>
#include <cstdio>

namespace eternal::dur {

Journal::Journal(sim::Disk& disk, std::string file)
    : disk_(disk), file_(std::move(file)) {
  open();
}

void Journal::open() {
  const ScanResult s = scan();
  if (!s.clean) {
    // Drop the corrupt tail before appending the new life's records —
    // otherwise the next scan would stop at the old garbage forever.
    disk_.truncate(file_, s.bytes_scanned);
    disk_.sync(file_);
  }
  next_index_ = s.records.empty() ? 0 : s.records.back().index + 1;
  broken_ = false;
}

bool Journal::append(JournalRecord& rec) {
  if (broken_) return false;
  rec.index = next_index_;
  cdr::Writer w;
  encode_journal_record_into(w, rec);
  scratch_.clear();
  frame_append(scratch_, w.written());
  if (!disk_.append(file_, scratch_)) {
    broken_ = true;  // disk full: the journal stops, the engine keeps going
    return false;
  }
  ++next_index_;
  return true;
}

void Journal::sync() { disk_.sync(file_); }

ScanResult Journal::scan() const {
  ScanResult out;
  const sim::DiskBytes* data = disk_.read(file_);
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
    at = off + len;
  }
  out.bytes_scanned = at;
  out.tail_lost_bytes = data->size() - at;
  out.clean = out.tail_lost_bytes == 0;
  return out;
}

std::size_t Journal::compact(std::uint64_t keep_from) {
  const ScanResult s = scan();
  if (s.records.empty() || s.records.front().index >= keep_from) return 0;
  Bytes kept;
  for (const JournalRecord& r : s.records) {
    if (r.index < keep_from) continue;
    cdr::Writer w;
    encode_journal_record_into(w, r);
    frame_append(kept, w.written());
  }
  const std::size_t before = disk_.size(file_);
  if (!disk_.write_file(file_, kept)) return 0;
  return before - kept.size();
}

CheckpointStore::CheckpointStore(sim::Disk& disk) : disk_(disk) {}

std::string CheckpointStore::file_name(const std::string& group,
                                       std::uint64_t version) {
  char tail[40];
  std::snprintf(tail, sizeof tail, "-%020llu",
                static_cast<unsigned long long>(version));
  return "ckpt-" + group + tail;
}

bool CheckpointStore::save(const CheckpointRecord& rec) {
  cdr::Writer w;
  encode_checkpoint_record_into(w, rec);
  Bytes framed;
  frame_append(framed, w.written());
  if (!disk_.write_file(file_name(rec.group, rec.state_version), framed)) {
    return false;
  }
  // Retire all but the two newest (names sort by zero-padded version).
  std::vector<std::string> files = disk_.list("ckpt-" + rec.group + "-");
  while (files.size() > 2) {
    disk_.remove(files.front());
    files.erase(files.begin());
  }
  return true;
}

std::optional<CheckpointRecord> CheckpointStore::load_file(
    const std::string& name) const {
  const sim::DiskBytes* data = disk_.read(name);
  if (!data) return std::nullopt;
  std::size_t off = 0, len = 0;
  if (!frame_parse(*data, 0, off, len)) return std::nullopt;
  cdr::Decoder dec(std::span<const std::uint8_t>(data->data() + off, len));
  try {
    return decode_checkpoint_record(dec);
  } catch (const cdr::MarshalError&) {
    return std::nullopt;
  }
}

std::optional<CheckpointRecord> CheckpointStore::load_newest(
    const std::string& group, std::size_t* fallbacks) const {
  std::vector<std::string> files = disk_.list("ckpt-" + group + "-");
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    if (auto rec = load_file(*it)) return rec;
    if (fallbacks) ++*fallbacks;
  }
  return std::nullopt;
}

std::vector<std::string> CheckpointStore::groups() const {
  std::vector<std::string> out;
  for (const std::string& name : disk_.list("ckpt-")) {
    // "ckpt-<group>-<20-digit version>"
    if (name.size() < 5 + 1 + 21) continue;
    const std::string group = name.substr(5, name.size() - 5 - 21);
    if (out.empty() || out.back() != group) out.push_back(group);
  }
  return out;
}

std::map<std::string, std::uint64_t> CheckpointStore::safe_positions() const {
  std::map<std::string, std::uint64_t> out;
  for (const std::string& group : groups()) {
    std::vector<std::string> files = disk_.list("ckpt-" + group + "-");
    if (files.size() < 2) {
      out[group] = 0;
      continue;
    }
    const auto prev = load_file(files[files.size() - 2]);
    out[group] = prev ? prev->position : 0;
  }
  return out;
}

}  // namespace eternal::dur
