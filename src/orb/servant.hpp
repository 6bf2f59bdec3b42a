// Servant programming model (dynamic skeleton).
//
// A servant registers named operations; the infrastructure dispatches
// decoded GIOP requests to them. Handlers come in two flavours:
//
//   * sync:  void(InvokerContext&, Decoder& args, Writer& result)
//   * async: Task(InvokerContext&, Decoder& args, Writer& result)
//            — may `co_await ctx.invoke(...)` for nested operations
//
// The InvokerContext is the servant's *only* window on the outside world:
// nested invocations, time and randomness all flow through it, which is how
// the infrastructure sanitizes the sources of non-determinism that would
// otherwise make active replicas diverge (a central lesson of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>

#include "cdr/cdr.hpp"
#include "orb/exceptions.hpp"
#include "orb/task.hpp"

namespace eternal::orb {

class InvokerContext {
 public:
  virtual ~InvokerContext() = default;

  /// Invoke an operation on another object group; awaitable reply body.
  /// The replication engine assigns the operation identifier, suppresses
  /// duplicates and routes the (totally ordered) reply back here.
  virtual Future<cdr::Bytes> invoke(const std::string& group,
                                    const std::string& op,
                                    std::span<const std::uint8_t> args) = 0;

  /// Sanitized time service: identical at every replica of the group
  /// (derived from the invoking message, not the local clock).
  virtual std::uint64_t logical_time() const = 0;

  /// Sanitized randomness: a deterministic stream seeded from the operation
  /// identifier — identical at every replica, distinct per operation.
  virtual std::uint64_t deterministic_random() = 0;

  /// True when this execution is a fulfillment replay after a partition
  /// remerge (the application may need compensating behaviour, e.g. back
  /// orders in the paper's automobile example).
  virtual bool is_fulfillment() const = 0;

  /// True when this replica currently belongs to the group's primary
  /// component (always true while the system is not partitioned).
  virtual bool in_primary_component() const = 0;
};

class Servant {
 public:
  using AsyncHandler =
      std::function<Task(InvokerContext&, cdr::Decoder&, cdr::Writer&)>;
  using SyncHandler =
      std::function<void(InvokerContext&, cdr::Decoder&, cdr::Writer&)>;

  virtual ~Servant() = default;

  bool has_op(const std::string& name) const {
    return ops_.count(name) != 0;
  }

  /// Dispatch an operation. Throws SystemException(BAD_OPERATION) for an
  /// unknown name. The returned Task may already be complete (sync body).
  Task dispatch(const std::string& op, InvokerContext& ctx, cdr::Decoder& in,
                cdr::Writer& out);

  /// Whether this operation mutates servant state. Read-only operations do
  /// not trigger state updates under passive replication.
  bool is_read_only(const std::string& op) const {
    return read_only_.count(op) != 0;
  }

 protected:
  /// Register a synchronous operation.
  void op(const std::string& name, SyncHandler handler);
  /// Register a synchronous read-only operation (no state update needed).
  void read_op(const std::string& name, SyncHandler handler);
  /// Register an asynchronous operation (may perform nested invocations).
  void async_op(const std::string& name, AsyncHandler handler);

 private:
  std::map<std::string, AsyncHandler> ops_;
  std::set<std::string> read_only_;
};

}  // namespace eternal::orb
