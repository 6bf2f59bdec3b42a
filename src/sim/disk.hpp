// Deterministic simulated per-node disks for the durability subsystem.
//
// A `Disk` models one node's stable storage as a map of named files with
// *durable-prefix* semantics: `append` grows a file in memory, but only the
// bytes covered by a subsequent `sync` survive a crash. `crash(torn)` is
// the power-cut operator — it discards every file's unsynced tail, and in
// the torn variant keeps an arbitrary partial prefix of the journal tail
// (modelling a write that was mid-flight when power dropped), which is
// exactly the corruption class the journal scanner must shrug off.
// `write_file` models the write-temp + fsync + rename idiom used for
// checkpoints: the replacement is atomic — after a crash the file holds
// either the old or the new content, never a splice.
//
// Disks deliberately live *outside* the Simulation: a DiskFarm constructed
// before a cluster survives the teardown of the whole Simulation/Fabric/
// Domain stack, which is what makes a true cold restart testable — the
// second life sees only what the first life synced.
//
// `save_to`/`load_from` map the durable state to real directories
// (`<dir>/node-<n>/<file>`) so `tools/recoverctl` and CI artifact uploads
// can inspect the disks of a failed run offline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sim/network.hpp"

namespace eternal::sim {

using DiskBytes = std::vector<std::uint8_t>;

class Disk {
 public:
  struct File {
    DiskBytes data;          // full in-memory content (may exceed `synced`)
    std::size_t synced = 0;  // durable prefix length
  };

  /// Append bytes to `name` (creating it empty first). Returns false — and
  /// writes nothing — when the disk is full.
  bool append(const std::string& name, const std::uint8_t* bytes,
              std::size_t len);
  bool append(const std::string& name, const DiskBytes& bytes) {
    return append(name, bytes.data(), bytes.size());
  }

  /// Atomically replace `name` with `bytes`, durable immediately (models
  /// write-temp + fsync + rename). The bytes are copied into the file's
  /// existing buffer, so rewriting a file no larger than before allocates
  /// nothing; `bytes` must not point into that file. Returns false (and
  /// writes nothing) when the disk is full.
  bool write_file(const std::string& name, std::span<const std::uint8_t> bytes);

  /// Atomically replace `name` with its content after the first `bytes`,
  /// durable immediately — write_file of that suffix, done in place.
  /// Returns false (and changes nothing) when the disk is full or the file
  /// is shorter than `bytes`.
  bool drop_front(const std::string& name, std::size_t bytes);

  /// Extend the durable prefix of one file / of every file to its current
  /// in-memory length (fsync).
  void sync(const std::string& name);
  void sync_all();

  /// Current content (durable prefix + any unsynced tail), or nullptr.
  const DiskBytes* read(const std::string& name) const;
  bool remove(const std::string& name);
  /// Names of every file starting with `prefix`, sorted.
  std::vector<std::string> list(const std::string& prefix = {}) const;

  // --- fault injection ------------------------------------------------
  /// Power cut: every file loses its unsynced tail. With `torn` set, a
  /// file whose tail was mid-append instead keeps the first half of that
  /// tail — a torn write the record scanner must stop cleanly at.
  void crash(bool torn);
  /// Disk-full: subsequent append/write_file calls fail gracefully.
  void set_full(bool full) noexcept { full_ = full; }
  bool full() const noexcept { return full_; }

  // --- test helpers ---------------------------------------------------
  /// Flip every bit of one byte (CRC-corruption injection).
  bool corrupt_byte(const std::string& name, std::size_t offset);
  bool truncate(const std::string& name, std::size_t new_size);
  std::size_t synced_size(const std::string& name) const;
  std::size_t size(const std::string& name) const;

  // --- offline persistence -------------------------------------------
  /// Write each file's durable prefix to `<dir>/<file>`; returns false on
  /// any filesystem error.
  bool save_to(const std::string& dir) const;
  /// Load every regular file of `dir` as fully-synced content.
  bool load_from(const std::string& dir);

 private:
  std::map<std::string, File> files_;
  bool full_ = false;
};

/// One Disk per node, addressed by NodeId. Constructed outside the
/// Simulation so the durable state outlives any single cluster life.
class DiskFarm {
 public:
  explicit DiskFarm(std::size_t nodes);

  std::size_t size() const noexcept { return disks_.size(); }
  Disk& disk(NodeId n) { return disks_.at(n); }
  const Disk& disk(NodeId n) const { return disks_.at(n); }

  void crash_all(bool torn);
  void sync_all();

  /// Persist / restore every node's durable state under
  /// `<dir>/node-<n>/`.
  bool save_to(const std::string& dir) const;
  bool load_from(const std::string& dir);

 private:
  std::vector<Disk> disks_;
};

}  // namespace eternal::sim
