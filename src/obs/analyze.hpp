// Offline analysis of flight-recorder dumps (see obs/recorder.hpp): the
// core of the `obsctl` CLI (tools/obsctl), which the soak runner and the
// tests also call in-process.
//
// Loads dumps from all nodes of a run, merges both streams (trace spans and
// journal events) into one timeline, groups span records into per-operation
// lifecycles, and derives:
//
//  * per-operation timelines, sorted on the total order the operations were
//    delivered in (parsed from the TotemDeliver carrier coordinates);
//  * per-stage latency breakdowns — client→order (ClientSend to the token
//    visit that sequenced the message), order→deliver (token visit to first
//    totally-ordered delivery) and deliver→reply (first delivery to the
//    reply reaching the client) — with exact percentiles;
//  * invariant audits over the recorded history: every invoked operation is
//    delivered and answered exactly once per live replica, no operation is
//    executed twice on one node, retries map to suppressed duplicates,
//    membership views converge, and divergence convictions are consistent
//    across nodes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/recorder.hpp"

namespace eternal::obsctl {

using obs::FlightRecord;

/// One operation's reconstructed lifecycle across every node in the dumps.
struct OpTimeline {
  obs::OpRef op;
  std::uint64_t trace_id = 0;

  // Stage timestamps, 0 = not observed in the dumps.
  std::uint64_t client_send = 0;
  std::uint64_t client_span = 0;   // span id of the ClientSend record
  std::uint64_t first_order = 0;   // token visit that sequenced the send
  std::uint64_t first_deliver = 0; // earliest totally-ordered delivery
  std::uint64_t reply_deliver = 0; // reply reached the waiting client

  // Total-order position (parsed from the TotemDeliver carrier detail).
  std::uint64_t carrier_epoch = 0;
  std::uint64_t carrier_seq = 0;

  std::size_t retransmits = 0;
  std::size_t suppressions = 0;  // duplicate-suppression records, any kind
  std::size_t read_skips = 0;    // passive backups ignoring a read-only op
  std::size_t resync_defers = 0; // unsynced replicas buffering a delivery
  bool failover_retry = false;
  std::string group;  // target group (parsed from delivery/exec details)
  std::map<std::uint32_t, std::size_t> exec_starts;     // node -> count
  /// node -> (earliest, latest) ExecStart time — the audit exempts repeat
  /// executions separated by a state transfer at that node (a tentative
  /// secondary-component execution discarded by the resync).
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> exec_span;
  std::map<std::uint32_t, std::size_t> deliver_counts;  // node -> count
  std::map<std::uint32_t, std::uint64_t> first_deliver_at;  // node -> time

  std::vector<FlightRecord> records;  // this op's records, time-sorted
};

struct AuditViolation {
  std::string check;  // "lost-op", "duplicate-execution", ...
  std::string detail;
  std::string str() const { return check + ": " + detail; }
};

class Analysis {
 public:
  /// Load one dump file and merge its records. Throws std::runtime_error on
  /// a missing or corrupt file.
  void add_file(const std::string& path);
  void add_records(const std::vector<FlightRecord>& recs);

  std::size_t files() const noexcept { return files_; }
  std::size_t record_count() const noexcept { return records_.size(); }
  const std::vector<FlightRecord>& records() const noexcept {
    return records_;
  }

  /// The run seed parsed from the RunMeta journal stamp ("seed=N"), if the
  /// dumps carried one. Soak/bench clusters emit it at t=0, so violation
  /// reports can name the exact schedule that produced them.
  bool has_run_seed() { finalize(); return has_seed_; }
  std::uint64_t run_seed() { finalize(); return seed_; }

  /// Per-operation lifecycles, sorted on the total order (operations never
  /// seen in a TotemDeliver sort after the ordered ones, by first record).
  const std::vector<OpTimeline>& timelines();

  /// Human-readable per-operation timeline listing.
  std::string timeline_report();
  /// Per-stage latency breakdown (exact percentiles over all operations).
  std::string latency_report();
  /// Run every invariant audit; empty = history is consistent.
  std::vector<AuditViolation> audit();

 private:
  void finalize();

  std::size_t files_ = 0;
  bool finalized_ = false;
  bool has_seed_ = false;
  std::uint64_t seed_ = 0;
  std::vector<FlightRecord> records_;
  std::vector<OpTimeline> timelines_;
};

}  // namespace eternal::obsctl
