// Domain: the replication infrastructure for a whole simulated cluster —
// one Engine per processor, layered over a Totem fabric. The top-level
// entry point applications use (see examples/).
#pragma once

#include <memory>
#include <vector>

#include "rep/engine.hpp"
#include "rep/stub.hpp"
#include "totem/fabric.hpp"

namespace eternal::rep {

class Domain {
 public:
  explicit Domain(totem::Fabric& fabric, EngineParams params = {});

  totem::Fabric& fabric() noexcept { return fabric_; }
  sim::Simulation& simulation() noexcept { return fabric_.simulation(); }
  std::size_t size() const noexcept { return engines_.size(); }

  Engine& engine(NodeId id) { return *engines_.at(id); }
  Client& client(NodeId id) { return engines_.at(id)->client(); }

  /// Typed stub for `group`, invoked from processor `id` (DESIGN.md §4):
  ///   domain.ref(4, "counter").call<std::int64_t>("incr", 10)
  GroupRef ref(NodeId id, std::string group) {
    return GroupRef(client(id), std::move(group));
  }

  /// Restart a crashed processor: the protocol stack restarts with empty
  /// state and the engine drops everything the crashed process held.
  void restart(NodeId id) {
    engines_.at(id)->reset_after_crash();
    fabric_.restart(id);
  }

  /// Host a replica of `cfg` on each of `nodes`. All are marked initial
  /// (authoritative empty state); use Engine::host directly to add a
  /// replica that must acquire state by transfer.
  template <typename ReplicaT, typename... Args>
  void host_on(const GroupConfig& cfg, const std::vector<NodeId>& nodes,
               Args&&... args) {
    for (NodeId n : nodes) {
      engine(n).host(cfg, std::make_shared<ReplicaT>(args...), true);
    }
  }

  /// Sum over all engines of `get(engine.stats())`, where `get` reads one
  /// or more counters (benchmark convenience).
  template <typename F>
  std::uint64_t total(F&& get) const {
    std::uint64_t sum = 0;
    for (const auto& e : engines_) sum += get(e->stats());
    return sum;
  }

 private:
  totem::Fabric& fabric_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace eternal::rep
