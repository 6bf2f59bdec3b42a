#include "orb/servant.hpp"

namespace eternal::orb {

Task Servant::dispatch(const std::string& op, InvokerContext& ctx,
                       cdr::Decoder& in, cdr::Writer& out) {
  auto it = ops_.find(op);
  if (it == ops_.end()) throw bad_operation(op);
  return it->second(ctx, in, out);
}

void Servant::op(const std::string& name, SyncHandler handler) {
  ops_[name] = [handler = std::move(handler)](
                   InvokerContext& ctx, cdr::Decoder& in,
                   cdr::Writer& out) -> Task {
    handler(ctx, in, out);
    co_return;
  };
}

void Servant::read_op(const std::string& name, SyncHandler handler) {
  op(name, std::move(handler));
  read_only_.insert(name);
}

void Servant::async_op(const std::string& name, AsyncHandler handler) {
  ops_[name] = std::move(handler);
}

}  // namespace eternal::orb
