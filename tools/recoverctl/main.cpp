// recoverctl — offline inspector for durable-state dumps.
//
//   recoverctl inspect <farm-dir>...   per-node journal/checkpoint/meta summary
//   recoverctl verify  <farm-dir>...   consistency audit; exit 1 on violation
//
// A farm dir is what sim::DiskFarm::save_to wrote: one `node-<n>/`
// subdirectory per node holding that node's durable files (`journal`,
// `ckpt-<group>-<version>`, `meta`). CI uploads these for failed recovery
// soaks; recoverctl answers "what survived on disk, and would recovery
// succeed from it?" without rebuilding a cluster.
//
// `verify` separates survivable damage from real violations. A torn or
// truncated journal tail and a corrupt newest checkpoint are the faults
// recovery is designed to absorb (scan stops at the intact prefix, the
// store falls back a version) — reported as warnings. Hard failures are
// the states recovery cannot paper over: a checkpoint pointing past the
// journal's intact prefix (compaction ate bytes a retained checkpoint
// still needs), non-monotonic record indices, and two nodes' checkpoints
// of the same (group, version) carrying different digests — the on-disk
// form of replica divergence.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "dur/journal.hpp"
#include "dur/record.hpp"
#include "sim/disk.hpp"

namespace fs = std::filesystem;

namespace {

int usage() {
  std::fprintf(stderr, "usage: recoverctl <inspect|verify> <farm-dir>...\n");
  return 2;
}

/// Every record's index is one past its predecessor's (compaction keeps a
/// suffix, appends continue it).
bool indices_monotonic(const eternal::dur::ScanResult& scan) {
  for (std::size_t i = 1; i < scan.records.size(); ++i) {
    if (scan.records[i].index != scan.records[i - 1].index + 1) return false;
  }
  return true;
}

std::vector<std::string> node_dirs(const std::string& farm_dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(farm_dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("node-", 0) == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int run_farm(const std::string& farm_dir, bool verify,
             std::size_t& violations) {
  const std::vector<std::string> nodes = node_dirs(farm_dir);
  if (nodes.empty()) {
    std::fprintf(stderr, "recoverctl: %s: no node-<n> directories\n",
                 farm_dir.c_str());
    return 2;
  }
  std::printf("%s: %zu node(s)\n", farm_dir.c_str(), nodes.size());

  // (group, version) -> (digest, node dir that first recorded it): the
  // cross-node divergence check.
  std::map<std::pair<std::string, std::uint64_t>,
           std::pair<std::uint64_t, std::string>>
      digests;

  for (const std::string& node_dir : nodes) {
    const std::string node = fs::path(node_dir).filename().string();
    eternal::sim::Disk disk;
    if (!disk.load_from(node_dir)) {
      std::fprintf(stderr, "recoverctl: %s: load failed\n",
                   node_dir.c_str());
      return 2;
    }

    // The shared read-only scan: Journal::open would truncate a corrupt
    // tail, hiding exactly the forensics inspect must report.
    const eternal::dur::ScanResult js = eternal::dur::scan_journal(disk);
    std::printf("  %s: journal %zu record(s), %zu bytes", node.c_str(),
                js.records.size(), js.bytes_scanned);
    if (!js.records.empty()) {
      std::printf(", indices %llu..%llu",
                  static_cast<unsigned long long>(js.records.front().index),
                  static_cast<unsigned long long>(js.records.back().index));
    }
    if (!js.clean) {
      std::printf("  [warn: scan stopped, %zu tail byte(s) lost]",
                  js.tail_lost_bytes);
    }
    std::printf("\n");
    if (!indices_monotonic(js)) {
      ++violations;
      std::printf("    VIOLATION: journal indices not monotonic\n");
    }

    if (const auto meta = eternal::dur::read_meta(disk)) {
      std::printf("    meta: max_epoch=%llu client_next_op=%llu\n",
                  static_cast<unsigned long long>(meta->max_epoch),
                  static_cast<unsigned long long>(meta->client_next_op));
    } else {
      std::printf("    meta: absent  [warn: identifier floors fall back to "
                  "checkpoints + journal scan]\n");
    }

    const std::uint64_t journal_end =
        js.records.empty() ? 0 : js.records.back().index + 1;
    const std::uint64_t journal_begin =
        js.records.empty() ? 0 : js.records.front().index;

    // Newest valid checkpoint per group on this node (for the replayable
    // and divergence checks); every file still gets its own report line.
    std::map<std::string, eternal::dur::CheckpointRecord> newest;
    for (const std::string& file : disk.list("ckpt-")) {
      const auto rec = eternal::dur::read_checkpoint(disk, file);
      if (!rec) {
        std::printf("    %s: [warn: corrupt — recovery falls back]\n",
                    file.c_str());
        continue;
      }
      std::printf(
          "    %s: version=%llu digest=%llu position=%llu blob=%zuB\n",
          file.c_str(), static_cast<unsigned long long>(rec->state_version),
          static_cast<unsigned long long>(rec->digest),
          static_cast<unsigned long long>(rec->position), rec->blob.size());
      auto [slot, fresh] = newest.try_emplace(rec->group, *rec);
      if (!fresh && rec->state_version > slot->second.state_version) {
        slot->second = *rec;
      }
      auto [it, inserted] = digests.try_emplace(
          {rec->group, rec->state_version},
          std::make_pair(rec->digest, node_dir));
      if (!inserted && it->second.first != rec->digest) {
        ++violations;
        std::printf("    VIOLATION: %s version %llu digest %llu disagrees "
                    "with %s (digest %llu)\n",
                    rec->group.c_str(),
                    static_cast<unsigned long long>(rec->state_version),
                    static_cast<unsigned long long>(rec->digest),
                    it->second.second.c_str(),
                    static_cast<unsigned long long>(it->second.first));
      }
    }
    for (const auto& [group, rec] : newest) {
      // Replay resumes at rec.position: compaction must not have
      // reclaimed past it, and the journal must reach it (an empty suffix
      // is fine — the checkpoint IS the state).
      if (rec.position > journal_end ||
          (rec.position < journal_end && rec.position < journal_begin)) {
        ++violations;
        std::printf("    VIOLATION: %s newest checkpoint resumes at %llu "
                    "but journal holds [%llu, %llu)\n",
                    group.c_str(),
                    static_cast<unsigned long long>(rec.position),
                    static_cast<unsigned long long>(journal_begin),
                    static_cast<unsigned long long>(journal_end));
      }
    }
  }
  (void)verify;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd != "inspect" && cmd != "verify") return usage();

  std::size_t violations = 0;
  for (int i = 2; i < argc; ++i) {
    if (!fs::is_directory(argv[i])) {
      std::fprintf(stderr, "recoverctl: %s: not a directory\n", argv[i]);
      return 2;
    }
    if (int rc = run_farm(argv[i], cmd == "verify", violations)) return rc;
  }
  if (violations != 0) {
    std::printf("%zu violation(s)\n", violations);
  }
  // `inspect` always reports success; `verify` turns violations into a
  // failing exit for CI.
  return (cmd == "verify" && violations != 0) ? 1 : 0;
}
