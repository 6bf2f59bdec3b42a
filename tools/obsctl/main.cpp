// obsctl — offline flight-recorder analyzer.
//
//   obsctl timeline <dump.bin|dir>...   per-operation timelines in total order
//   obsctl latency  <dump.bin|dir>...   per-stage latency percentiles
//   obsctl audit    <dump.bin|dir>...   invariant audit; exit 1 on violation
//   obsctl events   <dump.bin|dir>...   raw journal-event stream, time-sorted
//
// Directories are scanned (non-recursively) for *.bin dumps, sorted by name.
// `events` prints the membership/recovery/checkpoint narrative the audits
// consume — the first thing to read when an audit convicts a run.
//
// For `audit`, each *directory* argument is its own run: operation ids are
// deterministic per run, so dumps of different runs must never be merged
// into one analysis. Loose file arguments form one additional run. Each
// run is audited independently and reported with its RunMeta seed; the exit
// code is 1 if any run has a violation. `timeline` and `latency` keep the
// historic merge-everything behaviour (one run's dumps from several nodes).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/analyze.hpp"

namespace fs = std::filesystem;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: obsctl <timeline|latency|audit|events> <dump.bin|dir>...\n");
  return 2;
}

std::vector<std::string> dir_files(const std::string& dir) {
  std::vector<std::string> found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".bin") {
      found.push_back(entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::vector<std::string> expand(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  for (const std::string& arg : args) {
    if (fs::is_directory(arg)) {
      const auto found = dir_files(arg);
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(arg);
    }
  }
  return files;
}

/// One audit run: a label (directory name or "<files>") and its dumps.
struct Run {
  std::string label;
  std::vector<std::string> files;
};

std::vector<Run> split_runs(const std::vector<std::string>& args) {
  std::vector<Run> runs;
  Run loose{"<files>", {}};
  for (const std::string& arg : args) {
    if (fs::is_directory(arg)) {
      runs.push_back({arg, dir_files(arg)});
    } else {
      loose.files.push_back(arg);
    }
  }
  if (!loose.files.empty()) runs.push_back(std::move(loose));
  return runs;
}

int load_into(eternal::obsctl::Analysis& analysis,
              const std::vector<std::string>& files) {
  for (const std::string& file : files) {
    try {
      analysis.add_file(file);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "obsctl: %s\n", e.what());
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  if (cmd != "timeline" && cmd != "latency" && cmd != "audit" &&
      cmd != "events") {
    return usage();
  }
  const std::vector<std::string> args{argv + 2, argv + argc};

  if (cmd == "events") {
    const std::vector<std::string> files = expand(args);
    if (files.empty()) {
      std::fprintf(stderr, "obsctl: no dump files found\n");
      return 2;
    }
    eternal::obsctl::Analysis analysis;
    if (int rc = load_into(analysis, files)) return rc;
    for (const auto& rec : analysis.records()) {
      if (rec.stream != eternal::obsctl::FlightRecord::Stream::Journal) {
        continue;
      }
      std::printf("%s\n", rec.str().c_str());
    }
    return 0;
  }

  if (cmd == "timeline" || cmd == "latency") {
    const std::vector<std::string> files = expand(args);
    if (files.empty()) {
      std::fprintf(stderr, "obsctl: no dump files found\n");
      return 2;
    }
    eternal::obsctl::Analysis analysis;
    if (int rc = load_into(analysis, files)) return rc;
    std::fputs((cmd == "timeline" ? analysis.timeline_report()
                                  : analysis.latency_report())
                   .c_str(),
               stdout);
    return 0;
  }

  const std::vector<Run> runs = split_runs(args);
  std::size_t total_files = 0;
  for (const Run& run : runs) total_files += run.files.size();
  if (total_files == 0) {
    std::fprintf(stderr, "obsctl: no dump files found\n");
    return 2;
  }

  std::size_t total_violations = 0;
  for (const Run& run : runs) {
    if (run.files.empty()) {
      std::printf("obsctl audit: %s: no dump files\n", run.label.c_str());
      continue;
    }
    eternal::obsctl::Analysis analysis;
    if (int rc = load_into(analysis, run.files)) return rc;
    const auto violations = analysis.audit();
    total_violations += violations.size();
    std::string seed = analysis.has_run_seed()
                           ? "seed " + std::to_string(analysis.run_seed())
                           : "seed unknown";
    std::printf("obsctl audit: %s (%s): %zu files, %zu records, %zu "
                "operations, %zu violation(s)\n",
                run.label.c_str(), seed.c_str(), analysis.files(),
                analysis.record_count(), analysis.timelines().size(),
                violations.size());
    for (const auto& v : violations) {
      std::printf("  %s\n", v.str().c_str());
    }
  }
  return total_violations == 0 ? 0 : 1;
}
