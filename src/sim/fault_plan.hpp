// Scripted fault injection.
//
// The paper's experiments were driven by operators killing processes and
// pulling cables; a FaultPlan is the reproducible equivalent: a schedule of
// crash / recover / partition / heal actions applied to the network at fixed
// simulated times.
#pragma once

#include <string>
#include <vector>

#include "sim/network.hpp"

namespace eternal::sim {

class FaultPlan {
 public:
  explicit FaultPlan(Network& net) : net_(net) {}

  FaultPlan& crash_at(Time t, NodeId node);
  FaultPlan& recover_at(Time t, NodeId node);
  FaultPlan& partition_at(Time t, std::vector<std::vector<NodeId>> components);
  FaultPlan& heal_at(Time t);

  /// Schedule every recorded action on the simulation. Call once.
  void arm();

  /// Human-readable description of the plan, for bench harness output.
  std::string describe() const;

 private:
  enum class Action { Crash, Recover, Partition, Heal };
  struct Step {
    Time time = 0;
    std::string label;
    Action action = Action::Heal;
    NodeId node = 0;                              // Crash, Recover
    std::vector<std::vector<NodeId>> components;  // Partition
  };
  void apply(const Step& s);

  Network& net_;
  std::vector<Step> steps_;
  bool armed_ = false;
};

}  // namespace eternal::sim
