// Object adapter: maps object keys to servants and turns GIOP requests into
// GIOP replies. Used directly by the unreplicated baseline ORB; the
// replication engine uses it underneath its ordering/duplicate machinery.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "giop/giop.hpp"
#include "orb/servant.hpp"

namespace eternal::orb {

class ObjectAdapter {
 public:
  /// Activate a servant under a key. The adapter shares ownership so that
  /// in-flight operations survive deactivation.
  void activate(const std::string& key, std::shared_ptr<Servant> servant);
  void deactivate(const std::string& key);
  std::shared_ptr<Servant> find(const std::string& key) const;
  bool empty() const noexcept { return servants_.empty(); }

  /// Fully synchronous request dispatch: decodes the GIOP request (header
  /// and body reference `request_wire`, no copies), invokes the servant, and
  /// frames the GIOP reply (NO_EXCEPTION or SYSTEM_EXCEPTION) into `arena`.
  /// Operations that suspend (nested invocations) cannot be served on this
  /// path and yield a TRANSIENT system exception — the replicated path in
  /// rep::Engine handles those.
  cdr::WireBuf handle_request_sync(cdr::Arena& arena,
                                   const cdr::WireBuf& request_wire,
                                   InvokerContext& ctx) const;

 private:
  std::map<std::string, std::shared_ptr<Servant>> servants_;
};

/// Builds a SYSTEM_EXCEPTION reply for a request id, framed in `arena`.
cdr::WireBuf make_exception_reply(cdr::Arena& arena, std::uint32_t request_id,
                                  const SystemException& ex);
/// Builds a NO_EXCEPTION reply carrying the result body, framed in `arena`.
cdr::WireBuf make_success_reply(cdr::Arena& arena, std::uint32_t request_id,
                                std::span<const std::uint8_t> body);
/// Parses a reply: returns the body (copied out of the frame at this typed
/// boundary) or throws the carried SystemException.
cdr::Bytes parse_reply(const giop::Message& msg);

/// An InvokerContext for unreplicated dispatch: nested invocation is not
/// available, time is the local simulation clock, randomness is drawn from
/// the simulation generator. (This is exactly the non-fault-tolerant ORB
/// behaviour the paper's infrastructure had to replace.)
class PlainContext : public InvokerContext {
 public:
  PlainContext(std::uint64_t now, std::uint64_t rand_seed)
      : now_(now), rand_state_(rand_seed) {}

  Future<cdr::Bytes> invoke(const std::string&, const std::string&,
                            std::span<const std::uint8_t>) override {
    throw transient();
  }
  std::uint64_t logical_time() const override { return now_; }
  std::uint64_t deterministic_random() override {
    rand_state_ = rand_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return rand_state_;
  }
  bool is_fulfillment() const override { return false; }
  bool in_primary_component() const override { return true; }

 private:
  std::uint64_t now_ = 0;
  std::uint64_t rand_state_ = 0;
};

}  // namespace eternal::orb
