// detlint:allow(static-local) — process-wide observability singleton
// (Meyers `global()`), shared diagnostics, not replica state.
#include "obs/journal.hpp"

#include <sstream>

#include "obs/recorder.hpp"

namespace eternal::obs {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::RingViewInstalled: return "ring_view_installed";
    case EventKind::GroupViewInstalled: return "group_view_installed";
    case EventKind::TokenLoss: return "token_loss";
    case EventKind::RemergeDetected: return "remerge_detected";
    case EventKind::PartitionSecondary: return "partition_secondary";
    case EventKind::Failover: return "failover";
    case EventKind::SelfPromotion: return "self_promotion";
    case EventKind::StateTransferBegin: return "state_transfer_begin";
    case EventKind::StateTransferEnd: return "state_transfer_end";
    case EventKind::FaultSuspected: return "fault_suspected";
    case EventKind::FaultCleared: return "fault_cleared";
    case EventKind::ReplicaSpawned: return "replica_spawned";
    case EventKind::MemberAdded: return "member_added";
    case EventKind::MemberRemoved: return "member_removed";
    case EventKind::DivergenceDetected: return "divergence_detected";
    case EventKind::RunMeta: return "run_meta";
    case EventKind::CheckpointCut: return "checkpoint_cut";
    case EventKind::RecoveryBegin: return "recovery_begin";
    case EventKind::RecoveryLoaded: return "recovery_loaded";
    case EventKind::RecoveryEnd: return "recovery_end";
    case EventKind::DomainRecovered: return "domain_recovered";
    case EventKind::RequestExpired: return "request_expired";
  }
  return "?";
}

Journal::Journal(std::size_t capacity) : cap_(capacity ? capacity : 1) {}

void Journal::set_capacity(std::size_t capacity) {
  cap_ = capacity ? capacity : 1;
  while (events_.size() > cap_) {
    events_.pop_front();
    ++dropped_;
  }
}

void Journal::clear() {
  events_.clear();
  dropped_ = 0;
}

void Journal::emit(std::uint64_t time, std::uint32_t node, EventKind kind,
                   std::string subject, std::string detail) {
  if (!enabled_) return;
  events_.push_back(
      JournalEvent{time, node, kind, std::move(subject), std::move(detail)});
  FlightRecorder& fr = FlightRecorder::global();
  if (fr.enabled()) fr.absorb_event(events_.back());
  if (events_.size() > cap_) {
    events_.pop_front();
    ++dropped_;
  }
}

std::vector<JournalEvent> Journal::events() const {
  return {events_.begin(), events_.end()};
}

std::vector<JournalEvent> Journal::events(EventKind kind) const {
  std::vector<JournalEvent> out;
  for (const JournalEvent& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::string Journal::dump_text() const {
  std::ostringstream os;
  for (const JournalEvent& e : events_) {
    os << '[' << e.time << "] node=" << e.node << ' ' << to_string(e.kind)
       << ' ' << e.subject;
    if (!e.detail.empty()) os << ' ' << e.detail;
    os << '\n';
  }
  return os.str();
}

std::string Journal::dump_json() const {
  std::ostringstream os;
  os << '[';
  bool first = true;
  for (const JournalEvent& e : events_) {
    if (!first) os << ',';
    first = false;
    os << "{\"time\":" << e.time << ",\"node\":" << e.node << ",\"kind\":\""
       << to_string(e.kind) << "\",\"subject\":\"" << e.subject
       << "\",\"detail\":\"";
    for (char ch : e.detail) {
      if (ch == '"' || ch == '\\') os << '\\';
      os << ch;
    }
    os << "\"}";
  }
  os << ']';
  return os.str();
}

Journal& Journal::global() {
  static Journal journal;
  return journal;
}

std::string format_members(const std::vector<std::uint32_t>& members) {
  std::string out = "[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(members[i]);
  }
  out += "]";
  return out;
}

}  // namespace eternal::obs
