// ReplicationManager: the FT-CORBA management plane.
//
// Combines the standard's three interfaces:
//   * PropertyManager  — fault-tolerance properties (see properties.hpp);
//   * GenericFactory   — create_object: places the initial replicas of a
//     group on processors using registered per-group replica factories;
//   * ObjectGroupManager — add_member / remove_member / locations_of, plus
//     interoperable object group references (IOGRs) whose version bumps on
//     every membership change.
//
// The manager also *enforces* MinimumNumberReplicas: it observes group
// views, and when a fault drops a group below its minimum it spawns a
// replacement replica on a spare processor, which acquires state through
// the engine's three-tier transfer.
//
// Faithfulness note: in the original system the ReplicationManager is
// itself a replicated CORBA object. Here it is modeled as a direct-call
// management object observing every node — equivalent behaviour, without
// marshaling the management plane through itself (DESIGN.md records this
// substitution).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dur/durability.hpp"
#include "ft/fault_notifier.hpp"
#include "ft/properties.hpp"
#include "obs/metrics.hpp"
#include "rep/domain.hpp"

namespace eternal::ft {

class DurabilityPlane;

/// One profile of an interoperable object group reference: where a replica
/// lives and the key that reaches it.
struct IogrProfile {
  sim::NodeId node = 0;
  cdr::Bytes object_key;
  bool operator==(const IogrProfile&) const = default;
};

struct Iogr {
  std::string type_id;
  std::string group;
  std::uint32_t version = 0;  // FT_GROUP_VERSION
  std::vector<IogrProfile> profiles;

  /// An encapsulation: endian flag, then the reference's fields.
  cdr::WireBuf encode() const;
  static Iogr decode(const cdr::WireBuf& wire);
  bool operator==(const Iogr&) const = default;
};

class ObjectGroupError : public std::runtime_error {
 public:
  explicit ObjectGroupError(const std::string& what)
      : std::runtime_error(what) {}
};

class ReplicationManager {
 public:
  using Factory = std::function<std::shared_ptr<rep::Replica>(sim::NodeId)>;

  ReplicationManager(rep::Domain& domain, FaultNotifier& notifier);

  PropertyManager& properties() { return properties_; }

  /// GenericFactory: register how to build a replica of `group` on a node.
  void register_factory(const std::string& group, Factory factory);

  /// GenericFactory::create_object — places initial replicas and returns
  /// the group's IOGR. Placement: explicit nodes, or the least-loaded live
  /// processors.
  Iogr create_object(const std::string& group,
                     std::optional<std::vector<sim::NodeId>> nodes = {});

  /// One-shot group creation (DESIGN.md §4): registers a default-constructed
  /// ServantT factory, sets the group's fault-tolerance properties and
  /// places the initial replicas:
  ///   rm.create_object<app::Counter>("counter", props, {{0, 1, 2}});
  /// The three-step path (register_factory / properties / create_object)
  /// remains the primitive underneath for factories that need per-node
  /// construction arguments.
  template <typename ServantT>
  Iogr create_object(const std::string& group, const Properties& props,
                     std::optional<std::vector<sim::NodeId>> nodes = {}) {
    register_factory(
        group, [](sim::NodeId) { return std::make_shared<ServantT>(); });
    properties_.set_properties(group, props);
    return create_object(group, std::move(nodes));
  }

  /// ObjectGroupManager.
  Iogr add_member(const std::string& group, sim::NodeId node);
  Iogr remove_member(const std::string& group, sim::NodeId node);
  std::vector<sim::NodeId> locations_of(const std::string& group) const;
  Iogr iogr(const std::string& group) const;
  bool manages(const std::string& group) const {
    return groups_.count(group) != 0;
  }

  /// Replicas spawned automatically to restore MinimumNumberReplicas.
  std::uint64_t replicas_spawned() const { return replicas_spawned_.value(); }

  // --- disaster recovery (src/dur + ft/recovery.hpp) --------------------
  /// Attach the durability plane recover_node/recover_domain rebuild from.
  void set_durability_plane(DurabilityPlane* plane) { plane_ = plane; }

  /// Rebuild one processor from its durable journal + checkpoints while the
  /// rest of the domain keeps running: restart the protocol stack with the
  /// persisted epoch and client floors, re-host every recovered group,
  /// replay the journal suffix through the normal execution path, and
  /// re-arm durability for the new life. The disk state is only a warm
  /// start: the live group moved on meanwhile, so each rebuilt replica
  /// rejoins unsynced through the join marker and serves nothing until a
  /// donor's snapshot syncs it. The factories registered with this manager
  /// supply the replica shells.
  dur::RecoveryStats recover_node(sim::NodeId node);

  /// Whole-domain disaster recovery: cold-restart every processor from
  /// disk (the total-order journals make the survivors consistent; each
  /// rebuilt replica is synced at once, the tapes being the whole lineage),
  /// then announce DOMAIN_RECOVERED through the FaultNotifier.
  dur::RecoveryStats recover_domain();

 private:
  /// recover_node's rebuild; `authoritative` (recover_domain) keeps every
  /// rebuilt replica synced instead of resyncing it from a live donor.
  dur::RecoveryStats rebuild_node(sim::NodeId node, bool authoritative);

  struct ManagedGroup {
    std::string name;
    Factory factory;
    std::vector<sim::NodeId> members;  // last observed view
    std::uint32_t version = 1;
    bool recovery_pending = false;
    /// Set once the group has reached its minimum size; auto-recovery only
    /// acts on established groups (formation views are transient).
    bool established = false;
  };

  void on_view(sim::NodeId observer, const totem::GroupView& v);
  /// The processor whose engine's observations the manager trusts: the
  /// lowest live node. (The standard's ReplicationManager is a replicated
  /// object inside the primary component; this models its fail-over without
  /// marshaling the management plane through itself.)
  sim::NodeId home() const;
  void ensure_minimum(ManagedGroup& g);
  std::vector<sim::NodeId> place(const std::string& group,
                                 std::uint32_t count,
                                 const std::vector<sim::NodeId>& exclude);
  std::size_t load_of(sim::NodeId node) const;

  rep::Domain& domain_;
  FaultNotifier& notifier_;
  PropertyManager properties_;
  std::map<std::string, ManagedGroup> groups_;
  obs::Counter& replicas_spawned_;  // `rm.replicas_spawned` in the registry
  DurabilityPlane* plane_ = nullptr;
};

}  // namespace eternal::ft
