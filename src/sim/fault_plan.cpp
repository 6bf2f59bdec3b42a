#include "sim/fault_plan.hpp"

#include <sstream>
#include <stdexcept>

namespace eternal::sim {

FaultPlan& FaultPlan::crash_at(Time t, NodeId node) {
  steps_.push_back(
      {t, "crash node " + std::to_string(node), Action::Crash, node, {}});
  return *this;
}

FaultPlan& FaultPlan::recover_at(Time t, NodeId node) {
  steps_.push_back(
      {t, "recover node " + std::to_string(node), Action::Recover, node, {}});
  return *this;
}

FaultPlan& FaultPlan::partition_at(Time t,
                                   std::vector<std::vector<NodeId>> comps) {
  std::ostringstream label;
  label << "partition";
  for (const auto& c : comps) {
    label << " {";
    for (std::size_t i = 0; i < c.size(); ++i) {
      label << (i ? "," : "") << c[i];
    }
    label << "}";
  }
  steps_.push_back(
      {t, label.str(), Action::Partition, 0, std::move(comps)});
  return *this;
}

FaultPlan& FaultPlan::heal_at(Time t) {
  steps_.push_back({t, "heal partitions", Action::Heal, 0, {}});
  return *this;
}

void FaultPlan::arm() {
  if (armed_) throw std::logic_error("FaultPlan armed twice");
  armed_ = true;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    net_.simulation().at(steps_[i].time, [this, i] { apply(steps_[i]); });
  }
}

void FaultPlan::apply(const Step& s) {
  switch (s.action) {
    case Action::Crash: net_.crash(s.node); break;
    case Action::Recover: net_.recover(s.node); break;
    case Action::Partition: net_.set_partitions(s.components); break;
    case Action::Heal: net_.heal_partitions(); break;
  }
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  for (const auto& s : steps_) {
    os << "t=" << s.time << "us: " << s.label << "\n";
  }
  return os.str();
}

}  // namespace eternal::sim
