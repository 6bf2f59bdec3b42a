// Simulated local-area network with crash, loss and partition injection.
//
// This is the substitution for the paper's physical LAN testbed: processors
// exchange datagrams (unicast or LAN multicast) with configurable latency,
// jitter, bandwidth and loss. A *partition oracle* assigns each node to a
// connectivity component; messages cross components only when the components
// merge. Crashed nodes neither send nor receive. Every behaviour relevant to
// the protocols — reordering across senders, loss, partition, remerge — is
// reproducible from the simulation seed.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "cdr/arena.hpp"
#include "sim/simulation.hpp"

namespace eternal::sim {

using NodeId = std::uint32_t;
using Bytes = std::vector<std::uint8_t>;
/// Datagram payload: an immutable arena-backed frame. Capturing one in the
/// in-flight delivery closure bumps a slab refcount (or copies <=256 inline
/// bytes) instead of copying the payload per receiver.
using Frame = cdr::WireBuf;

struct NetParams {
  Time base_latency = 100;      // one-way, microseconds
  Time jitter = 20;             // uniform [0, jitter) added per message
  double loss_probability = 0;  // independent per (message, receiver)
  /// Serialisation cost: bytes per microsecond (125 ≈ 1 Gbit/s).
  double bytes_per_us = 125.0;
};

/// Traffic counters, used by the benchmark harnesses (e.g. to count how many
/// multicasts duplicate suppression saves).
struct NetStats {
  std::uint64_t unicasts_sent = 0;
  std::uint64_t multicasts_sent = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t datagrams_lost = 0;
  std::uint64_t datagrams_partitioned = 0;
  std::uint64_t datagrams_blocked = 0;  // dropped by a directed link block
  std::uint64_t bytes_sent = 0;
};

/// Gray-failure profile for one node: the node is alive and participates in
/// the protocol, but everything it touches is slow. `factor` multiplies the
/// transit time of every datagram it sends or receives; `extra` is a fixed
/// additional delay per datagram (models a saturated NIC / GC pause / an
/// overloaded kernel, the paper's "slow-but-alive" processor).
struct Slowdown {
  double factor = 1.0;
  Time extra = 0;
  bool degraded() const noexcept { return factor != 1.0 || extra != 0; }
};

class Network {
 public:
  using Handler = std::function<void(NodeId from, const Frame& data)>;

  Network(Simulation& sim, std::size_t node_count, NetParams params = {});

  std::size_t node_count() const noexcept { return handlers_.size(); }
  Simulation& simulation() noexcept { return sim_; }
  const NetParams& params() const noexcept { return params_; }
  void set_params(const NetParams& p) noexcept { params_ = p; }

  /// Install the receive handler for a node. At most one per node; protocol
  /// stacks demultiplex internally.
  void set_handler(NodeId node, Handler handler);

  /// Point-to-point datagram (the unreplicated IIOP baseline path).
  void unicast(NodeId from, NodeId to, Frame data);

  /// LAN multicast: delivered independently to every node reachable from
  /// the sender (including loss decided per receiver), excluding the sender.
  void multicast(NodeId from, Frame data);

  // --- fault injection -----------------------------------------------------
  void crash(NodeId node);
  void recover(NodeId node);
  bool is_up(NodeId node) const { return up_.at(node); }

  /// Partition the network into the given components. Nodes not listed form
  /// one implicit extra component. Replaces any previous partition.
  void set_partitions(const std::vector<std::vector<NodeId>>& components);
  /// Restore full connectivity (clears both partitions and link blocks).
  void heal_partitions();
  bool reachable(NodeId a, NodeId b) const {
    return component_.at(a) == component_.at(b);
  }
  std::uint32_t component_of(NodeId node) const { return component_.at(node); }

  // --- gray failures -------------------------------------------------------
  /// Degrade (or restore, with the default Slowdown) a single node. Applies
  /// to datagrams in both directions: the slow node drains its NIC late and
  /// serialises its sends late, so its peers see it as laggy, not dead.
  void set_slowdown(NodeId node, Slowdown s);
  const Slowdown& slowdown(NodeId node) const { return slow_.at(node); }
  void clear_slowdowns();

  // --- asymmetric connectivity --------------------------------------------
  /// Block the directed link from -> to (to -> from still works). Composes
  /// with partitions; checked both at send and at delivery time, so in-flight
  /// datagrams are dropped when a block forms, as with partitions.
  void block_link(NodeId from, NodeId to);
  void unblock_link(NodeId from, NodeId to);
  bool link_blocked(NodeId from, NodeId to) const {
    return blocked_.count({from, to}) != 0;
  }

  const NetStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = NetStats{}; }

 private:
  void deliver(NodeId from, NodeId to, const Frame& data);
  Time transit_time(NodeId from, NodeId to, std::size_t bytes);

  Simulation& sim_;
  NetParams params_;
  std::vector<Handler> handlers_;
  std::vector<bool> up_;
  std::vector<std::uint32_t> component_;
  std::vector<Slowdown> slow_;
  std::set<std::pair<NodeId, NodeId>> blocked_;  // directed (from, to)
  NetStats stats_;
};

}  // namespace eternal::sim
