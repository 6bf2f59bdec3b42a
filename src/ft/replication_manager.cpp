#include "ft/replication_manager.hpp"

#include <algorithm>

#include "ft/recovery.hpp"
#include "obs/journal.hpp"

namespace eternal::ft {

cdr::WireBuf Iogr::encode() const {
  cdr::Writer w;
  w.put_boolean(cdr::kHostLittleEndian);
  w.put_string(type_id);
  w.put_string(group);
  w.put_ulong(version);
  w.put_ulong(static_cast<std::uint32_t>(profiles.size()));
  for (const auto& p : profiles) {
    w.put_ulong(p.node);
    w.put_octet_seq(p.object_key);
  }
  return w.seal();
}

Iogr Iogr::decode(const cdr::WireBuf& wire) {
  cdr::Decoder outer(wire);
  const bool little = outer.get_boolean();
  outer.set_swap(little != cdr::kHostLittleEndian);
  Iogr iogr;
  iogr.type_id = outer.get_string();
  iogr.group = outer.get_string();
  iogr.version = outer.get_ulong();
  const std::uint32_t n = outer.get_ulong();
  if (n > 4096) throw cdr::MarshalError("implausible IOGR profile count");
  for (std::uint32_t i = 0; i < n; ++i) {
    IogrProfile p;
    p.node = outer.get_ulong();
    p.object_key = outer.get_octet_seq();
    iogr.profiles.push_back(std::move(p));
  }
  return iogr;
}

ReplicationManager::ReplicationManager(rep::Domain& domain,
                                       FaultNotifier& notifier)
    : domain_(domain),
      notifier_(notifier),
      replicas_spawned_(obs::fresh_counter("rm.replicas_spawned")) {
  for (sim::NodeId i = 0; i < domain_.size(); ++i) {
    domain_.engine(i).set_view_observer(
        [this, i](const totem::GroupView& v) { on_view(i, v); });
    // Divergence-oracle reports become structured fault reports naming the
    // diverged replica and the operation that exposed it.
    domain_.engine(i).set_divergence_observer(
        [this](const rep::DivergenceReport& r) {
          notifier_.push(FaultReport{r.node_b, r.group,
                                     domain_.simulation().now(), "DIVERGENCE",
                                     r.str()});
        });
  }
}

void ReplicationManager::register_factory(const std::string& group,
                                          Factory factory) {
  groups_[group].name = group;
  groups_[group].factory = std::move(factory);
}

std::size_t ReplicationManager::load_of(sim::NodeId node) const {
  std::size_t load = 0;
  for (const auto& [name, g] : groups_) {
    if (std::find(g.members.begin(), g.members.end(), node) !=
        g.members.end()) {
      ++load;
    }
  }
  return load;
}

std::vector<sim::NodeId> ReplicationManager::place(
    const std::string& group, std::uint32_t count,
    const std::vector<sim::NodeId>& exclude) {
  std::vector<sim::NodeId> candidates;
  for (sim::NodeId i = 0; i < domain_.size(); ++i) {
    if (!domain_.fabric().is_up(i)) continue;
    if (domain_.engine(i).hosts(group)) continue;
    if (std::find(exclude.begin(), exclude.end(), i) != exclude.end()) {
      continue;
    }
    candidates.push_back(i);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this](sim::NodeId a, sim::NodeId b) {
                     return load_of(a) < load_of(b);
                   });
  if (candidates.size() > count) candidates.resize(count);
  return candidates;
}

Iogr ReplicationManager::create_object(
    const std::string& group, std::optional<std::vector<sim::NodeId>> nodes) {
  auto it = groups_.find(group);
  if (it == groups_.end() || !it->second.factory) {
    throw ObjectGroupError("no factory registered for group " + group);
  }
  ManagedGroup& g = it->second;
  const Properties& props = properties_.get_properties(group);

  std::vector<sim::NodeId> placement =
      nodes ? *nodes : place(group, props.initial_number_replicas, {});
  if (placement.size() < props.minimum_number_replicas) {
    throw ObjectGroupError("not enough processors to place " + group);
  }
  rep::GroupConfig cfg{group, props.replication_style};
  for (sim::NodeId n : placement) {
    domain_.engine(n).host(cfg, g.factory(n), /*initial=*/true);
  }
  g.members = placement;
  std::sort(g.members.begin(), g.members.end());
  g.version = 1;
  return iogr(group);
}

Iogr ReplicationManager::add_member(const std::string& group,
                                    sim::NodeId node) {
  auto it = groups_.find(group);
  if (it == groups_.end() || !it->second.factory) {
    throw ObjectGroupError("unknown group " + group);
  }
  ManagedGroup& g = it->second;
  if (domain_.engine(node).hosts(group)) {
    throw ObjectGroupError("node already hosts a replica of " + group);
  }
  const Properties& props = properties_.get_properties(group);
  rep::GroupConfig cfg{group, props.replication_style};
  // Joins unsynced: the engine acquires the three-tier state by transfer.
  domain_.engine(node).host(cfg, g.factory(node), /*initial=*/false);
  ++g.version;
  obs::Journal::global().emit(domain_.simulation().now(), node,
                              obs::EventKind::MemberAdded, group,
                              "iogr_version=" + std::to_string(g.version));
  return iogr(group);
}

Iogr ReplicationManager::remove_member(const std::string& group,
                                       sim::NodeId node) {
  auto it = groups_.find(group);
  if (it == groups_.end()) throw ObjectGroupError("unknown group " + group);
  if (!domain_.engine(node).hosts(group)) {
    throw ObjectGroupError("node hosts no replica of " + group);
  }
  domain_.engine(node).unhost(group);
  ++it->second.version;
  obs::Journal::global().emit(
      domain_.simulation().now(), node, obs::EventKind::MemberRemoved, group,
      "iogr_version=" + std::to_string(it->second.version));
  return iogr(group);
}

std::vector<sim::NodeId> ReplicationManager::locations_of(
    const std::string& group) const {
  auto it = groups_.find(group);
  return it == groups_.end() ? std::vector<sim::NodeId>{}
                             : it->second.members;
}

Iogr ReplicationManager::iogr(const std::string& group) const {
  auto it = groups_.find(group);
  if (it == groups_.end()) throw ObjectGroupError("unknown group " + group);
  Iogr iogr;
  iogr.type_id = "IDL:" + group + ":1.0";
  iogr.group = group;
  iogr.version = it->second.version;
  for (sim::NodeId n : it->second.members) {
    iogr.profiles.push_back(
        {n, cdr::Bytes(group.begin(), group.end())});
  }
  return iogr;
}

sim::NodeId ReplicationManager::home() const {
  for (sim::NodeId i = 0; i < domain_.size(); ++i) {
    if (domain_.fabric().is_up(i)) return i;
  }
  return 0;
}

void ReplicationManager::on_view(sim::NodeId observer,
                                 const totem::GroupView& v) {
  // Only the home node's observations count: a partitioned-away processor
  // reports its own component's (possibly empty) view of the group, which
  // must not trigger management actions in the primary component.
  if (observer != home()) return;
  auto it = groups_.find(v.group);
  if (it == groups_.end()) return;
  ManagedGroup& g = it->second;
  if (v.members == g.members) return;  // duplicate observation
  g.members = v.members;
  ++g.version;  // membership change: fresh IOGR
  ensure_minimum(g);
}

void ReplicationManager::ensure_minimum(ManagedGroup& g) {
  const Properties& props = properties_.get_properties(g.name);
  if (g.members.size() >= props.minimum_number_replicas) {
    g.recovery_pending = false;
    g.established = true;
    return;
  }
  if (!g.established || g.recovery_pending || !g.factory) return;
  g.recovery_pending = true;
  const std::string name = g.name;
  // Decouple from the delivery path that observed the view, and let the
  // membership settle: a view may be a transient step of a larger change.
  domain_.simulation().after(50 * sim::kMillisecond, [this, name] {
    auto it = groups_.find(name);
    if (it == groups_.end()) return;
    ManagedGroup& g = it->second;
    g.recovery_pending = false;
    const Properties& props = properties_.get_properties(name);
    if (g.members.size() >= props.minimum_number_replicas) return;
    const auto spares =
        place(name, static_cast<std::uint32_t>(
                        props.minimum_number_replicas - g.members.size()),
              g.members);
    for (sim::NodeId n : spares) {
      if (domain_.engine(n).hosts(name)) continue;
      if (!domain_.fabric().is_up(n)) continue;
      try {
        add_member(name, n);
        replicas_spawned_.inc();
        obs::Journal::global().emit(
            domain_.simulation().now(), n, obs::EventKind::ReplicaSpawned,
            name,
            "members=" + obs::format_members(g.members) +
                " min=" + std::to_string(props.minimum_number_replicas));
        notifier_.push(
            FaultReport{n, name, domain_.simulation().now(), "SPAWNED", {}});
      } catch (const ObjectGroupError&) {
        // Placement raced with another change; the next view retries.
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Disaster recovery
// ---------------------------------------------------------------------------

dur::RecoveryStats ReplicationManager::recover_node(sim::NodeId node) {
  return rebuild_node(node, /*authoritative=*/false);
}

dur::RecoveryStats ReplicationManager::rebuild_node(sim::NodeId node,
                                                    bool authoritative) {
  if (!plane_) {
    throw ObjectGroupError("recover_node: no durability plane attached");
  }
  rep::Engine& engine = domain_.engine(node);
  engine.reset_after_crash();

  dur::NodeDurability& d = plane_->recreate(node);
  dur::RecoveredNode rn = d.recover();

  // Identifier floors before the protocol stack restarts: the first ring
  // this node forms or joins must already sit above every epoch the
  // pre-crash life could have stamped into operation identifiers.
  domain_.fabric().node(node).seed_epoch(rn.epoch_floor);
  domain_.fabric().restart(node);
  engine.set_client_op_floor(rn.client_op_floor);
  engine.set_durability(&d);

  engine.begin_recovery();
  for (const dur::RecoveredGroup& g : rn.groups) {
    auto git = groups_.find(g.name);
    if (git == groups_.end() || !git->second.factory) {
      obs::Journal::global().emit(domain_.simulation().now(), node,
                                  obs::EventKind::RecoveryLoaded, g.name,
                                  "skipped: no factory registered");
      continue;
    }
    engine.host_recovered(
        rep::GroupConfig{g.name, static_cast<rep::Style>(g.style)},
        git->second.factory(node), g);
  }
  // Groups present only as journal records (crashed before their first
  // checkpoint cut) still need a hosted replica to replay into.
  for (const dur::JournalRecord& r : rn.records) {
    if (engine.hosts(r.group)) continue;
    auto git = groups_.find(r.group);
    if (git == groups_.end() || !git->second.factory) continue;
    const Properties& props = properties_.get_properties(r.group);
    dur::RecoveredGroup fresh;
    fresh.name = r.group;
    engine.host_recovered(rep::GroupConfig{r.group, props.replication_style},
                          git->second.factory(node), fresh);
  }
  for (const dur::JournalRecord& r : rn.records) {
    engine.replay_journal_record(r);
  }
  engine.finish_recovery(authoritative);
  // A node may have crashed before journaling anything for a group it was
  // a member of (no checkpoint cut yet, unsynced tape lost). Rejoin those
  // through the normal state-transfer path — the recovered siblings are
  // the donors — instead of resurrecting them from an empty disk.
  for (auto& [name, mg] : groups_) {
    if (engine.hosts(name) || !mg.factory) continue;
    if (std::find(mg.members.begin(), mg.members.end(), node) ==
        mg.members.end()) {
      continue;
    }
    const Properties& props = properties_.get_properties(name);
    engine.host(rep::GroupConfig{name, props.replication_style},
                mg.factory(node), /*initial=*/false);
  }
  return rn.stats;
}

dur::RecoveryStats ReplicationManager::recover_domain() {
  dur::RecoveryStats total;
  std::size_t nodes = 0;
  for (sim::NodeId n = 0; n < domain_.size(); ++n) {
    const dur::RecoveryStats s = rebuild_node(n, /*authoritative=*/true);
    ++nodes;
    total.checkpoints_loaded += s.checkpoints_loaded;
    total.checkpoint_fallbacks += s.checkpoint_fallbacks;
    total.records_scanned += s.records_scanned;
    total.records_replayed += s.records_replayed;
    total.tail_lost_bytes += s.tail_lost_bytes;
    total.journal_clean = total.journal_clean && s.journal_clean;
    // Nodes recover in parallel in a real deployment; the domain's
    // simulated cost is the slowest node's, not the sum.
    total.simulated_cost_us =
        std::max(total.simulated_cost_us, s.simulated_cost_us);
  }
  const std::string detail =
      "nodes=" + std::to_string(nodes) +
      " checkpoints=" + std::to_string(total.checkpoints_loaded) +
      " fallbacks=" + std::to_string(total.checkpoint_fallbacks) +
      " replayed=" + std::to_string(total.records_replayed) +
      " tail_lost=" + std::to_string(total.tail_lost_bytes) +
      " cost_us=" + std::to_string(total.simulated_cost_us);
  obs::Journal::global().emit(domain_.simulation().now(), home(),
                              obs::EventKind::DomainRecovered, "domain",
                              detail);
  notifier_.push(FaultReport{home(), "", domain_.simulation().now(),
                             "DOMAIN_RECOVERED", detail});
  return total;
}

}  // namespace eternal::ft
