#include "dur/durability.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace eternal::dur {

namespace {

/// Slack added above the highest client op_seq any durable artifact saw:
/// operations invoked in the last instants before a crash may never have
/// reached the journal, so the floor jumps well past them.
constexpr std::uint64_t kClientOpMargin = 1ULL << 16;

constexpr std::uint8_t kKindInvocation = 1;  // rep::Kind::Invocation

}  // namespace

NodeDurability::NodeDurability(sim::Simulation& sim, sim::Disk& disk,
                               sim::NodeId node, DurParams params)
    : sim_(sim),
      disk_(disk),
      node_(node),
      params_(params),
      journal_(disk),
      checkpoints_(disk),
      appends_(obs::fresh_counter("dur", "journal_appends", node)),
      append_bytes_(obs::fresh_counter("dur", "journal_bytes", node)),
      append_failures_(obs::fresh_counter("dur", "append_failures", node)),
      syncs_(obs::fresh_counter("dur", "journal_syncs", node)),
      checkpoints_cut_(obs::fresh_counter("dur", "checkpoints_cut", node)),
      compacted_bytes_(obs::fresh_counter("dur", "compacted_bytes", node)),
      recoveries_(obs::fresh_counter("dur", "recoveries", node)),
      replayed_(obs::fresh_counter("dur", "records_replayed", node)),
      fallbacks_(obs::fresh_counter("dur", "checkpoint_fallbacks", node)),
      tail_lost_(obs::fresh_counter("dur", "tail_lost_bytes", node)) {}

NodeDurability::~NodeDurability() { close(); }

void NodeDurability::start() {
  closed_ = false;
  if (params_.sync_interval == 0) return;  // per-append sync instead
  sync_timer_ = sim_.after(params_.sync_interval, [this] { sync_tick(); });
}

void NodeDurability::sync_tick() {
  if (closed_) return;
  journal_.sync();
  write_meta();
  syncs_.inc();
  sync_timer_ = sim_.after(params_.sync_interval, [this] { sync_tick(); });
}

void NodeDurability::append(JournalRecord rec) {
  const std::size_t bytes = rec.payload.size();
  if (!journal_.append(rec)) {
    append_failures_.inc();
    return;
  }
  appends_.inc();
  append_bytes_.inc(bytes);
  if (params_.sync_interval == 0) journal_.sync();
}

void NodeDurability::cut_checkpoint(CheckpointHeader rec,
                                    const BlobWriter& write_blob) {
  rec.position = journal_.next_index();
  if (meta_provider_) {
    const MetaSnapshot m = meta_provider_();
    rec.max_epoch = m.max_epoch;
    rec.client_next_op = m.client_next_op;
  }
  if (!checkpoints_.save(rec, write_blob)) {
    append_failures_.inc();
    return;
  }
  checkpoints_cut_.inc();
  // Compact below the minimum position any retained checkpoint (newest
  // *or* its fallback) could still ask to replay from. A group that
  // journals but has no checkpoint (cold-passive backups, or any group
  // before its first cut) pins the whole tape — it replays from scratch.
  const std::uint64_t keep_from =
      checkpoints_.compaction_floor(rec.position, journal_.groups());
  if (keep_from > 0) compacted_bytes_.inc(journal_.compact(keep_from));
  journal_.sync();
  write_meta();
}

void NodeDurability::sync_now() {
  journal_.sync();
  write_meta();
  syncs_.inc();
}

void NodeDurability::write_meta() {
  MetaRecord m;
  if (meta_provider_) {
    const MetaSnapshot s = meta_provider_();
    m.max_epoch = s.max_epoch;
    m.client_next_op = s.client_next_op;
  }
  cdr::Writer w(meta_arena_);
  const FrameStart frame = begin_frame(w);
  encode_meta_record_into(w, m);
  end_frame(w, frame);
  disk_.write_file(kMetaFile, w.written());
}

void NodeDurability::on_crash(bool torn) {
  close();
  disk_.crash(torn);
}

void NodeDurability::close() {
  closed_ = true;
  sync_timer_.cancel();
}

RecoveredNode NodeDurability::recover() {
  RecoveredNode out;
  recoveries_.inc();

  // Meta file (may be absent or corrupt: floors then come from the
  // checkpoints and journal alone).
  if (const std::optional<MetaRecord> m = read_meta(disk_)) {
    out.epoch_floor = m->max_epoch;
    out.client_op_floor = m->client_next_op;
  }

  // Newest valid checkpoint per group, with fallback.
  std::map<std::string, std::uint64_t> positions;
  for (const std::string& group : checkpoints_.groups()) {
    std::size_t fb = 0;
    const auto rec = checkpoints_.load_newest(group, &fb);
    out.stats.checkpoint_fallbacks += fb;
    fallbacks_.inc(fb);
    if (!rec) continue;  // both copies corrupt: replay from scratch
    RecoveredGroup g;
    g.name = rec->group;
    g.style = rec->style;
    g.has_checkpoint = true;
    g.state_version = rec->state_version;
    g.digest = rec->digest;
    g.position = rec->position;
    g.blob = rec->blob;
    positions[g.name] = g.position;
    out.epoch_floor = std::max(out.epoch_floor, rec->max_epoch);
    out.client_op_floor = std::max(out.client_op_floor, rec->client_next_op);
    out.stats.simulated_cost_us +=
        params_.load_us_per_kib * (g.blob.size() / 1024 + 1);
    ++out.stats.checkpoints_loaded;
    out.groups.push_back(std::move(g));
  }

  // The life's one journal scan, which also reopens the journal for
  // appends at the next index; then per-group gating.
  ScanResult scan = journal_.open();
  out.stats.records_scanned = scan.records.size();
  out.stats.tail_lost_bytes = scan.tail_lost_bytes;
  out.stats.journal_clean = scan.clean;
  tail_lost_.inc(scan.tail_lost_bytes);
  for (JournalRecord& r : scan.records) {
    out.epoch_floor = std::max(out.epoch_floor, r.carrier.epoch);
    if (r.kind == kKindInvocation && r.op.parent.epoch == 0 &&
        r.op.parent.seq == static_cast<std::uint64_t>(node_) + 1) {
      out.client_op_floor = std::max(out.client_op_floor, r.op.op_seq + 1);
    }
    const auto pit = positions.find(r.group);
    if (pit != positions.end() && r.index < pit->second) continue;
    out.records.push_back(std::move(r));
  }
  out.stats.records_replayed = out.records.size();
  replayed_.inc(out.records.size());
  out.stats.simulated_cost_us +=
      params_.replay_us_per_record * out.records.size();
  if (out.client_op_floor > 0) out.client_op_floor += kClientOpMargin;

  start();
  return out;
}

}  // namespace eternal::dur
