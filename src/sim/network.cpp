#include "sim/network.hpp"

#include <stdexcept>
#include <utility>

namespace eternal::sim {

Network::Network(Simulation& sim, std::size_t node_count, NetParams params)
    : sim_(sim),
      params_(params),
      handlers_(node_count),
      up_(node_count, true),
      component_(node_count, 0),
      slow_(node_count) {}

void Network::set_handler(NodeId node, Handler handler) {
  handlers_.at(node) = std::move(handler);
}

Time Network::transit_time(NodeId from, NodeId to, std::size_t bytes) {
  Time t = params_.base_latency;
  if (params_.jitter > 0) {
    t += sim_.rng().below(params_.jitter);
  }
  if (params_.bytes_per_us > 0) {
    t += static_cast<Time>(static_cast<double>(bytes) / params_.bytes_per_us);
  }
  // Gray failure: a degraded endpoint stretches the whole transit (it
  // serialises sends late / drains its receive queue late). Factors compose
  // multiplicatively, fixed penalties add.
  const Slowdown& s = slow_[from];
  const Slowdown& r = slow_[to];
  if (s.degraded() || r.degraded()) {
    t = static_cast<Time>(static_cast<double>(t) * s.factor * r.factor);
    t += s.extra + r.extra;
  }
  return t;
}

void Network::deliver(NodeId from, NodeId to, const Frame& data) {
  if (!up_[from]) return;
  if (!reachable(from, to)) {
    ++stats_.datagrams_partitioned;
    return;
  }
  if (link_blocked(from, to)) {
    ++stats_.datagrams_blocked;
    return;
  }
  if (params_.loss_probability > 0 &&
      sim_.rng().chance(params_.loss_probability)) {
    ++stats_.datagrams_lost;
    return;
  }
  // Capture the frame in the delivery closure: a slab refcount bump (or a
  // 256-byte inline copy) keeps the bytes alive until the handler runs,
  // potentially after the sender's arena has moved on.
  auto arrive = [this, from, to, payload = data] {
    // Partition/crash/block state is re-checked at delivery: messages in
    // flight when a partition or directed block forms, or when the receiver
    // dies, are lost, as on a real LAN.
    if (!up_[to] || !reachable(from, to)) {
      ++stats_.datagrams_partitioned;
      return;
    }
    if (link_blocked(from, to)) {
      ++stats_.datagrams_blocked;
      return;
    }
    if (handlers_[to]) {
      ++stats_.datagrams_delivered;
      handlers_[to](from, payload);
    }
  };
  // Every datagram is one of these; it must fit an event slot's inline
  // storage or each delivery pays a heap allocation.
  static_assert(sizeof(arrive) <= Simulation::kInlineClosure);
  sim_.after(transit_time(from, to, data.size()), std::move(arrive));
}

void Network::unicast(NodeId from, NodeId to, Frame data) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("Network::unicast node id");
  }
  if (!up_[from]) return;
  ++stats_.unicasts_sent;
  stats_.bytes_sent += data.size();
  deliver(from, to, data);
}

void Network::multicast(NodeId from, Frame data) {
  if (from >= handlers_.size()) {
    throw std::out_of_range("Network::multicast node id");
  }
  if (!up_[from]) return;
  ++stats_.multicasts_sent;
  stats_.bytes_sent += data.size();
  for (NodeId to = 0; to < handlers_.size(); ++to) {
    if (to == from) continue;
    deliver(from, to, data);
  }
}

void Network::crash(NodeId node) { up_.at(node) = false; }

void Network::recover(NodeId node) { up_.at(node) = true; }

void Network::set_partitions(const std::vector<std::vector<NodeId>>& comps) {
  // Component 0 is the implicit component for unlisted nodes.
  for (auto& c : component_) c = 0;
  std::uint32_t id = 1;
  for (const auto& comp : comps) {
    for (NodeId n : comp) component_.at(n) = id;
    ++id;
  }
}

void Network::heal_partitions() {
  for (auto& c : component_) c = 0;
  blocked_.clear();
}

void Network::set_slowdown(NodeId node, Slowdown s) {
  slow_.at(node) = s;
}

void Network::clear_slowdowns() {
  for (auto& s : slow_) s = Slowdown{};
}

void Network::block_link(NodeId from, NodeId to) {
  if (from >= handlers_.size() || to >= handlers_.size()) {
    throw std::out_of_range("Network::block_link node id");
  }
  blocked_.insert({from, to});
}

void Network::unblock_link(NodeId from, NodeId to) {
  blocked_.erase({from, to});
}

}  // namespace eternal::sim
