// Unreplicated point-to-point ORB (the IIOP baseline).
//
// This is the system *without* the paper's infrastructure: a client sends a
// GIOP request straight to the server's processor over the (simulated)
// network; one unreplicated servant executes it; the reply comes back the
// same way. The evaluation benches use this path as the baseline against
// which the fault-tolerance overhead is measured, exactly as the paper
// compares against an unmodified ORB.
#pragma once

#include <cstdint>
#include <map>

#include "orb/adapter.hpp"
#include "orb/task.hpp"
#include "sim/network.hpp"
#include "sim/simulation.hpp"

namespace eternal::orb {

class PlainOrb {
 public:
  PlainOrb(sim::Simulation& sim, sim::Network& net, sim::NodeId id);

  sim::NodeId id() const noexcept { return id_; }
  ObjectAdapter& adapter() noexcept { return adapter_; }

  /// Install this ORB as the node's network handler. Call once; a node is
  /// either a plain ORB endpoint or a Totem endpoint, never both.
  void attach();

  /// Invoke `op` on the servant registered under `key` at `server`.
  Future<cdr::Bytes> invoke(sim::NodeId server, const std::string& key,
                            const std::string& op,
                            std::span<const std::uint8_t> args);

  /// Convenience for tests/benches: invoke and drive the simulation until
  /// the reply arrives (or `timeout` elapses, raising TIMEOUT).
  cdr::Bytes invoke_blocking(sim::NodeId server, const std::string& key,
                             const std::string& op,
                             std::span<const std::uint8_t> args,
                             sim::Time timeout = sim::kSecond);

 private:
  void on_receive(sim::NodeId from, const sim::Frame& data);

  sim::Simulation& sim_;
  sim::Network& net_;
  sim::NodeId id_;
  ObjectAdapter adapter_;
  cdr::Arena arena_;  // outbound request/reply frames
  std::uint32_t next_request_id_ = 1;
  std::map<std::uint32_t, Future<cdr::Bytes>> pending_;
};

}  // namespace eternal::orb
