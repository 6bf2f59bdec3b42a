#include "obs/analyze.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "util/stats.hpp"

namespace eternal::obsctl {

namespace {

struct OpKey {
  std::uint64_t parent_epoch = 0;
  std::uint64_t parent_seq = 0;
  std::uint64_t op_seq = 0;

  auto operator<=>(const OpKey&) const = default;
};

OpKey key_of(const obs::OpRef& op) {
  return {op.parent_epoch, op.parent_seq, op.op_seq};
}

/// Parse "carrier=E:S" out of a TotemDeliver detail string.
bool parse_carrier(const std::string& detail, std::uint64_t& epoch,
                   std::uint64_t& seq) {
  const auto pos = detail.find("carrier=");
  if (pos == std::string::npos) return false;
  const char* p = detail.c_str() + pos + 8;
  char* endp = nullptr;
  epoch = std::strtoull(p, &endp, 10);
  if (endp == p || *endp != ':') return false;
  p = endp + 1;
  seq = std::strtoull(p, &endp, 10);
  return endp != p;
}

/// Parse "members=[a, b, c]" out of a view-install detail string.
bool parse_members(const std::string& detail, std::vector<std::uint32_t>& out) {
  const auto pos = detail.find("members=[");
  if (pos == std::string::npos) return false;
  const auto close = detail.find(']', pos);
  if (close == std::string::npos) return false;
  out.clear();
  const char* p = detail.c_str() + pos + 9;
  const char* stop = detail.c_str() + close;
  while (p < stop) {
    if (*p < '0' || *p > '9') {
      ++p;
      continue;
    }
    char* endp = nullptr;
    out.push_back(static_cast<std::uint32_t>(std::strtoul(p, &endp, 10)));
    p = endp;
  }
  return true;
}

std::string first_token(const std::string& s) {
  const auto pos = s.find(' ');
  return pos == std::string::npos ? s : s.substr(0, pos);
}

// Extracts the value of a "key=value" field from an event detail line, or
// an empty string when the field is absent.
std::string parse_field(const std::string& detail, const std::string& key) {
  const std::string needle = key + '=';
  auto pos = detail.find(needle);
  if (pos == std::string::npos) return {};
  pos += needle.size();
  const auto end = detail.find(' ', pos);
  return detail.substr(pos, end == std::string::npos ? std::string::npos
                                                     : end - pos);
}

std::string members_str(const std::vector<std::uint32_t>& members) {
  std::string out = "[";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(members[i]);
  }
  return out + "]";
}

}  // namespace

void Analysis::add_file(const std::string& path) {
  add_records(obs::FlightRecorder::load(path));
  ++files_;
}

void Analysis::add_records(const std::vector<FlightRecord>& recs) {
  records_.insert(records_.end(), recs.begin(), recs.end());
  finalized_ = false;
}

void Analysis::finalize() {
  if (finalized_) return;
  finalized_ = true;

  std::stable_sort(records_.begin(), records_.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.node != b.node) return a.node < b.node;
                     return a.span_id < b.span_id;
                   });

  // Token-visit sends are recorded at the ordering layer, which knows the
  // frame's trace context but not the operation inside the opaque payload:
  // match them back to operations via (trace id, parent span).
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
      token_visits;  // (trace, parent span) -> earliest visit time
  std::map<OpKey, OpTimeline> ops;

  for (const FlightRecord& r : records_) {
    if (r.stream == FlightRecord::Stream::Journal &&
        r.journal_kind() == obs::EventKind::RunMeta && !has_seed_) {
      const std::string detail = r.detail_str();
      const auto pos = detail.find("seed=");
      if (pos != std::string::npos) {
        char* endp = nullptr;
        const char* p = detail.c_str() + pos + 5;
        const std::uint64_t s = std::strtoull(p, &endp, 10);
        if (endp != p) {
          has_seed_ = true;
          seed_ = s;
        }
      }
    }
    if (r.stream != FlightRecord::Stream::Span) continue;
    if (!r.op.valid()) {
      if (r.span_event() == obs::SpanEvent::TokenVisitSend &&
          r.trace_id != 0) {
        auto [it, inserted] = token_visits.try_emplace(
            {r.trace_id, r.parent_span}, r.time);
        if (!inserted) it->second = std::min(it->second, r.time);
      }
      continue;
    }
    OpTimeline& t = ops[key_of(r.op)];
    t.op = r.op;
    if (r.trace_id != 0 && t.trace_id == 0) t.trace_id = r.trace_id;
    t.records.push_back(r);
    switch (r.span_event()) {
      case obs::SpanEvent::ClientSend:
        if (t.client_send == 0 || r.time < t.client_send) {
          t.client_send = r.time;
          t.client_span = r.span_id;
        }
        break;
      case obs::SpanEvent::ClientRetransmit:
        ++t.retransmits;
        break;
      case obs::SpanEvent::TotemDeliver: {
        ++t.deliver_counts[r.node];
        if (t.first_deliver == 0 || r.time < t.first_deliver) {
          t.first_deliver = r.time;
        }
        auto [dit, dnew] = t.first_deliver_at.try_emplace(r.node, r.time);
        if (!dnew) dit->second = std::min(dit->second, r.time);
        if (t.group.empty()) {
          const std::string detail = r.detail_str();
          const auto pos = detail.find("target=");
          if (pos != std::string::npos) t.group = detail.substr(pos + 7);
        }
        std::uint64_t epoch = 0, seq = 0;
        if (t.carrier_seq == 0 &&
            parse_carrier(r.detail_str(), epoch, seq)) {
          t.carrier_epoch = epoch;
          t.carrier_seq = seq;
        }
        break;
      }
      case obs::SpanEvent::ExecStart: {
        ++t.exec_starts[r.node];
        auto [eit, enew] =
            t.exec_span.try_emplace(r.node, std::make_pair(r.time, r.time));
        if (!enew) {
          eit->second.first = std::min(eit->second.first, r.time);
          eit->second.second = std::max(eit->second.second, r.time);
        }
        break;
      }
      case obs::SpanEvent::ReplyDeliver:
        if (t.reply_deliver == 0 || r.time < t.reply_deliver) {
          t.reply_deliver = r.time;
        }
        break;
      case obs::SpanEvent::DuplicateDropped:
      case obs::SpanEvent::DuplicateReplyResent:
      case obs::SpanEvent::SendSuppressed:
      case obs::SpanEvent::ResponseSuppressed:
        ++t.suppressions;
        break;
      case obs::SpanEvent::FailoverRetry:
        t.failover_retry = true;
        break;
      case obs::SpanEvent::ReadSkipped:
        ++t.read_skips;
        break;
      case obs::SpanEvent::ResyncDeferred:
        ++t.resync_defers;
        break;
      default:
        break;
    }
  }

  timelines_.clear();
  timelines_.reserve(ops.size());
  for (auto& [key, t] : ops) {
    if (t.client_send != 0 && t.trace_id != 0) {
      auto it = token_visits.find({t.trace_id, t.client_span});
      if (it != token_visits.end()) t.first_order = it->second;
    }
    timelines_.push_back(std::move(t));
  }

  // Total-order sort: ordered operations by carrier coordinates, the rest
  // (never seen delivered) after them by their earliest record.
  std::stable_sort(
      timelines_.begin(), timelines_.end(),
      [](const OpTimeline& a, const OpTimeline& b) {
        const bool ao = a.carrier_seq != 0, bo = b.carrier_seq != 0;
        if (ao != bo) return ao;
        if (ao) {
          if (a.carrier_epoch != b.carrier_epoch) {
            return a.carrier_epoch < b.carrier_epoch;
          }
          if (a.carrier_seq != b.carrier_seq) {
            return a.carrier_seq < b.carrier_seq;
          }
        }
        const std::uint64_t at = a.records.empty() ? 0 : a.records[0].time;
        const std::uint64_t bt = b.records.empty() ? 0 : b.records[0].time;
        return at < bt;
      });
}

const std::vector<OpTimeline>& Analysis::timelines() {
  finalize();
  return timelines_;
}

std::string Analysis::timeline_report() {
  finalize();
  std::ostringstream os;
  os << "operations: " << timelines_.size() << " (records "
     << records_.size() << ", files " << files_ << ")\n";
  for (const OpTimeline& t : timelines_) {
    os << t.op.str();
    if (t.carrier_seq != 0) {
      os << " order=" << t.carrier_epoch << ':' << t.carrier_seq;
    }
    if (t.client_send != 0) os << " send=" << t.client_send;
    if (t.first_order != 0) os << " token=" << t.first_order;
    if (t.first_deliver != 0) os << " deliver=" << t.first_deliver;
    if (t.reply_deliver != 0) {
      os << " reply=" << t.reply_deliver;
      if (t.client_send != 0) {
        os << " rtt=" << t.reply_deliver - t.client_send;
      }
    }
    os << " execs=";
    bool first = true;
    os << '{';
    for (const auto& [node, count] : t.exec_starts) {
      if (!first) os << ' ';
      os << node << ':' << count;
      first = false;
    }
    os << '}';
    if (t.retransmits) os << " retrans=" << t.retransmits;
    if (t.suppressions) os << " suppressed=" << t.suppressions;
    if (t.read_skips) os << " read-skips=" << t.read_skips;
    if (t.resync_defers) os << " resync-defers=" << t.resync_defers;
    if (t.failover_retry) os << " failover-retry";
    os << '\n';
  }
  return os.str();
}

std::string Analysis::latency_report() {
  finalize();
  util::Summary to_order, to_deliver, to_reply, rtt;
  for (const OpTimeline& t : timelines_) {
    if (t.client_send == 0) continue;
    if (t.first_order >= t.client_send && t.first_order != 0) {
      to_order.add(static_cast<double>(t.first_order - t.client_send));
    }
    if (t.first_deliver != 0 && t.first_order != 0 &&
        t.first_deliver >= t.first_order) {
      to_deliver.add(static_cast<double>(t.first_deliver - t.first_order));
    }
    if (t.reply_deliver != 0 && t.first_deliver != 0 &&
        t.reply_deliver >= t.first_deliver) {
      to_reply.add(static_cast<double>(t.reply_deliver - t.first_deliver));
    }
    if (t.reply_deliver != 0 && t.reply_deliver >= t.client_send) {
      rtt.add(static_cast<double>(t.reply_deliver - t.client_send));
    }
  }
  std::ostringstream os;
  os << "per-stage latency (simulated us, " << timelines_.size()
     << " operations)\n";
  os << "  client->order    " << to_order.describe() << '\n';
  os << "  order->deliver   " << to_deliver.describe() << '\n';
  os << "  deliver->reply   " << to_reply.describe() << '\n';
  os << "  client->reply    " << rtt.describe() << '\n';
  return os.str();
}

std::vector<AuditViolation> Analysis::audit() {
  finalize();
  std::vector<AuditViolation> out;

  // State-transfer moments per (group, node): a replica that resynced
  // discarded whatever tentative history it held (the paper's partitioned
  // operation), so executions and deliveries on opposite sides of a
  // transfer belong to different state lineages and must not be judged as
  // one. Spawned replicas likewise bootstrap through a transfer, and a
  // disk recovery is the same boundary in time instead of space: the
  // journal replay re-runs pre-crash deliveries under the restarted
  // process, so a repeat straddling RecoveryBegin/RecoveryEnd is the tape
  // being replayed, not a duplicate.
  std::map<std::pair<std::string, std::uint32_t>, std::vector<std::uint64_t>>
      transfers;
  for (const FlightRecord& r : records_) {
    if (r.stream != FlightRecord::Stream::Journal) continue;
    if (r.journal_kind() != obs::EventKind::StateTransferBegin &&
        r.journal_kind() != obs::EventKind::StateTransferEnd &&
        r.journal_kind() != obs::EventKind::RecoveryBegin &&
        r.journal_kind() != obs::EventKind::RecoveryEnd) {
      continue;
    }
    transfers[{first_token(r.detail_str()), r.node}].push_back(r.time);
  }
  const auto transfer_between = [&transfers](const std::string& group,
                                             std::uint32_t node,
                                             std::uint64_t lo,
                                             std::uint64_t hi) {
    auto it = transfers.find({group, node});
    if (it == transfers.end()) return false;
    for (std::uint64_t tt : it->second) {
      if (tt >= lo && tt <= hi) return true;
    }
    return false;
  };

  for (const OpTimeline& t : timelines_) {
    // Every invoked operation completes: a recorded client send must have a
    // recorded reply delivery (exactly-once includes at-least-once).
    if (t.client_send != 0 && t.reply_deliver == 0) {
      out.push_back({"lost-op",
                     "operation " + t.op.str() +
                         " was invoked but no reply delivery was recorded"});
    }
    // ...and at-most-once: no node may start executing one operation twice.
    // A repeat separated by a state transfer at that node is a partitioned
    // operation, not a violation: the first run was tentative in a secondary
    // component and the resync discarded it before the merged history
    // re-executed.
    for (const auto& [node, count] : t.exec_starts) {
      if (count > 1) {
        const auto span_it = t.exec_span.find(node);
        if (span_it != t.exec_span.end() &&
            transfer_between(t.group, node, span_it->second.first,
                             span_it->second.second)) {
          continue;
        }
        out.push_back({"duplicate-execution",
                       "operation " + t.op.str() + " started executing " +
                           std::to_string(count) + " times on node " +
                           std::to_string(node)});
      }
    }
    // Every retry maps to a suppressed duplicate: when a retransmitted
    // operation was visibly delivered more than once at an executing node,
    // some duplicate-suppression record must explain why it ran once. A
    // passive backup's deliberate skip of a read-only delivery counts — it
    // explains the extra delivery at a node that later executed as primary —
    // as does an unsynced replica's deferral of a delivery it never acted on.
    // A state transfer between a node's earliest delivery and its last
    // execution also explains an unmatched extra delivery: the node received
    // the first copy before it was synced (or before its replica existed),
    // and only the post-transfer lineage acted on the retry.
    if (t.retransmits > 0 && t.suppressions == 0 && t.read_skips == 0 &&
        t.resync_defers == 0) {
      for (const auto& [node, count] : t.exec_starts) {
        if (count > 0 && t.deliver_counts.count(node) &&
            t.deliver_counts.at(node) >= 2) {
          const auto span_it = t.exec_span.find(node);
          const auto del_it = t.first_deliver_at.find(node);
          if (span_it != t.exec_span.end() &&
              del_it != t.first_deliver_at.end() &&
              transfer_between(t.group, node, del_it->second,
                               span_it->second.second)) {
            continue;
          }
          out.push_back(
              {"unsuppressed-retry",
               "operation " + t.op.str() + " was retransmitted and node " +
                   std::to_string(node) +
                   " saw multiple deliveries, but no suppression was "
                   "recorded"});
          break;
        }
      }
    }
  }

  // Membership views converge: for each group, the final view two live
  // nodes installed must agree whenever each believes the other is a
  // member. (A crashed node's stale view legitimately disagrees — but then
  // the survivors' views no longer contain it.)
  struct LastView {
    std::uint64_t time = 0;
    std::vector<std::uint32_t> members;
  };
  std::map<std::string, std::map<std::uint32_t, LastView>> views;
  std::map<std::string, std::map<std::string, std::size_t>> convictions;
  for (const FlightRecord& r : records_) {
    if (r.stream != FlightRecord::Stream::Journal) continue;
    const std::string detail = r.detail_str();
    if (r.journal_kind() == obs::EventKind::GroupViewInstalled) {
      std::vector<std::uint32_t> members;
      if (!parse_members(detail, members)) continue;
      LastView& lv = views[first_token(detail)][r.node];
      if (r.time >= lv.time) {
        lv.time = r.time;
        lv.members = std::move(members);
      }
    } else if (r.journal_kind() == obs::EventKind::DivergenceDetected) {
      ++convictions[first_token(detail)][detail];
    }
  }
  for (const auto& [group, per_node] : views) {
    for (auto a = per_node.begin(); a != per_node.end(); ++a) {
      for (auto b = std::next(a); b != per_node.end(); ++b) {
        const auto& ma = a->second.members;
        const auto& mb = b->second.members;
        const bool mutual =
            std::find(ma.begin(), ma.end(), b->first) != ma.end() &&
            std::find(mb.begin(), mb.end(), a->first) != mb.end();
        if (mutual && ma != mb) {
          out.push_back({"view-divergence",
                         "group " + group + ": node " +
                             std::to_string(a->first) + " final view " +
                             members_str(ma) + " != node " +
                             std::to_string(b->first) + " view " +
                             members_str(mb)});
        }
      }
    }
  }

  // Divergence convictions are themselves consistent: the oracle's verdict
  // rode the total order, so every node must convict the same operation
  // with the same report. (A conviction alone is the oracle doing its job,
  // not an audit failure.)
  for (const auto& [group, details] : convictions) {
    if (details.size() > 1) {
      std::string summary;
      for (const auto& [detail, count] : details) {
        if (!summary.empty()) summary += " vs ";
        summary += '"' + detail + '"';
      }
      out.push_back({"divergence-inconsistent",
                     "group " + group +
                         ": nodes convicted different reports: " + summary});
    }
  }

  // Recovered state matches what was durably checkpointed. Every
  // CheckpointCut of the same (group, version) must carry the same digest
  // on every node — the cut rides the agreed sequence, so divergent cut
  // digests mean the replicas had already split before the crash. And a
  // RecoveryLoaded must agree with the cut it restored from: the engine
  // stamps " mismatch" into the detail when its own re-digest disagrees,
  // and we cross-check the loaded digest against the recorded cut besides,
  // in case the disk image was swapped between runs.
  std::map<std::pair<std::string, std::string>, std::pair<std::string, std::uint32_t>>
      cut_digests;  // (group, version) -> (digest, first node that cut it)
  for (const FlightRecord& r : records_) {
    if (r.stream != FlightRecord::Stream::Journal) continue;
    const auto kind = r.journal_kind();
    if (kind != obs::EventKind::CheckpointCut &&
        kind != obs::EventKind::RecoveryLoaded) {
      continue;
    }
    const std::string detail = r.detail_str();
    const std::string group = first_token(detail);
    const std::string version = parse_field(detail, "version");
    const std::string digest = parse_field(detail, "digest");
    if (kind == obs::EventKind::CheckpointCut) {
      if (version.empty() || digest.empty()) continue;
      auto [it, inserted] =
          cut_digests.try_emplace({group, version}, digest, r.node);
      if (!inserted && it->second.first != digest) {
        out.push_back({"checkpoint-divergence",
                       "group " + group + " version " + version +
                           ": node " + std::to_string(r.node) +
                           " cut digest " + digest + " but node " +
                           std::to_string(it->second.second) + " cut " +
                           it->second.first});
      }
    } else {
      if (detail.find(" mismatch") != std::string::npos) {
        out.push_back({"recovery-digest",
                       "group " + group + ": node " +
                           std::to_string(r.node) +
                           " loaded a checkpoint whose digest did not match "
                           "its recovered state (" + detail + ")"});
        continue;
      }
      if (version.empty() || digest.empty()) continue;
      auto it = cut_digests.find({group, version});
      if (it != cut_digests.end() && it->second.first != digest) {
        out.push_back({"recovery-digest",
                       "group " + group + " version " + version +
                           ": node " + std::to_string(r.node) + " loaded " +
                           digest + " but the recorded cut was " +
                           it->second.first});
      }
    }
  }

  // Stamp every violation with the run seed so a soak failure is
  // self-describing: the report alone names the schedule to replay.
  if (has_seed_) {
    for (AuditViolation& v : out) {
      v.detail = "[seed " + std::to_string(seed_) + "] " + v.detail;
    }
  }

  return out;
}

}  // namespace eternal::obsctl
