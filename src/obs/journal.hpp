// Membership & fault event journal.
//
// A bounded structured log of the rare-but-load-bearing events the paper's
// lessons hinge on: ring/group view installs, token losses, partitions and
// remerges, failovers, self-promotions, state transfers, fault reports and
// automatic replica replacement. Emitters are totem::Node, rep::Engine,
// ft::FaultDetector and ft::ReplicationManager; the journal is what lets a
// partition/remerge or failover be read back as an ordered story without
// reconstructing it from debug logs.
//
// The journal is ON by default — its events are orders of magnitude rarer
// than messages, so the cost is negligible — and bounded: when full, the
// oldest events are discarded and `dropped()` counts them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace eternal::obs {

enum class EventKind : std::uint8_t {
  RingViewInstalled,    // totem installed a new ring configuration
  GroupViewInstalled,   // engine observed a group membership change
  TokenLoss,            // totem token-loss timeout fired
  RemergeDetected,      // a foreign ring became reachable again
  PartitionSecondary,   // replica found itself in a secondary component
  Failover,             // a backup became the primary
  SelfPromotion,        // merge deadlock broken by a state-holding member
  StateTransferBegin,   // replica started (re)acquiring state
  StateTransferEnd,     // replica synced (snapshot applied / marked synced)
  FaultSuspected,       // fault detector reported a crash
  FaultCleared,         // suspected processor answered again
  ReplicaSpawned,       // ReplicationManager restored MinimumNumberReplicas
  MemberAdded,          // ObjectGroupManager::add_member
  MemberRemoved,        // ObjectGroupManager::remove_member
  DivergenceDetected,   // oracle: replica state digests disagreed at an op
  RunMeta,              // run metadata stamp ("seed=N ..."), emitted once at
                        // start so dumps are self-describing for obsctl
  CheckpointCut,        // durable group checkpoint cut on the total order
  RecoveryBegin,        // node started rebuilding a group from disk
  RecoveryLoaded,       // checkpoint applied; detail carries the digest
                        // check ("... mismatch ..." = divergence from the
                        // pre-crash cut)
  RecoveryEnd,          // journal suffix replayed; group live again
  DomainRecovered,      // RM finished whole-domain disaster recovery
  RequestExpired,       // ordered request refused past its expiration
};

const char* to_string(EventKind k);

struct JournalEvent {
  std::uint64_t time = 0;  // simulated microseconds
  std::uint32_t node = 0;  // emitting processor (or observer for the RM)
  EventKind kind = EventKind::RingViewInstalled;
  std::string subject;     // group name, ring id, or target node
  std::string detail;
};

class Journal {
 public:
  explicit Journal(std::size_t capacity = 4096);

  bool enabled() const noexcept { return enabled_; }
  void enable(bool on = true) noexcept { enabled_ = on; }
  void set_capacity(std::size_t capacity);
  void clear();

  void emit(std::uint64_t time, std::uint32_t node, EventKind kind,
            std::string subject, std::string detail = {});

  std::size_t size() const noexcept { return events_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  std::vector<JournalEvent> events() const;
  std::vector<JournalEvent> events(EventKind kind) const;

  /// One line per event: `[time] node=N kind subject detail`.
  std::string dump_text() const;
  std::string dump_json() const;

  /// The process-wide default journal all layers emit into.
  static Journal& global();

 private:
  bool enabled_ = true;
  std::size_t cap_ = 0;
  std::uint64_t dropped_ = 0;
  std::deque<JournalEvent> events_;
};

/// "[1, 2, 5]" — membership lists for subjects/details.
std::string format_members(const std::vector<std::uint32_t>& members);

}  // namespace eternal::obs
