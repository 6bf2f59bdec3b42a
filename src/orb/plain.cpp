#include "orb/plain.hpp"

namespace eternal::orb {

PlainOrb::PlainOrb(sim::Simulation& sim, sim::Network& net, sim::NodeId id)
    : sim_(sim), net_(net), id_(id) {}

void PlainOrb::attach() {
  net_.set_handler(id_, [this](sim::NodeId from, const sim::Frame& data) {
    on_receive(from, data);
  });
}

Future<cdr::Bytes> PlainOrb::invoke(sim::NodeId server, const std::string& key,
                                    const std::string& op,
                                    std::span<const std::uint8_t> args) {
  const std::uint32_t request_id = next_request_id_++;
  Future<cdr::Bytes> fut;
  pending_.emplace(request_id, fut);
  giop::RequestHeader hdr;
  hdr.request_id = request_id;
  hdr.object_key = cdr::WireBuf(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(key.data()), key.size()));
  hdr.operation = op;
  cdr::Writer w(arena_, args.size() + 128);
  giop::encode_request_into(w, hdr, args);
  net_.unicast(id_, server, w.seal());
  return fut;
}

cdr::Bytes PlainOrb::invoke_blocking(sim::NodeId server, const std::string& key,
                                     const std::string& op,
                                     std::span<const std::uint8_t> args,
                                     sim::Time timeout) {
  auto fut = invoke(server, key, op, args);
  const sim::Time deadline = sim_.now() + timeout;
  while (!fut.ready() && sim_.now() < deadline) {
    if (!sim_.step()) break;
  }
  if (!fut.ready()) throw orb::timeout();
  cdr::Bytes out;
  std::exception_ptr failure;
  fut.then([&](Future<cdr::Bytes>::State& st) {
    if (st.error) {
      failure = st.error;
    } else {
      out = std::move(*st.value);
    }
  });
  if (failure) std::rethrow_exception(failure);
  return out;
}

void PlainOrb::on_receive(sim::NodeId from, const sim::Frame& data) {
  giop::Message msg = giop::decode(data);
  if (msg.header.msg_type == giop::MsgType::Request) {
    PlainContext ctx(sim_.now(), sim_.rng().next());
    cdr::WireBuf reply = adapter_.handle_request_sync(arena_, data, ctx);
    net_.unicast(id_, from, std::move(reply));
    return;
  }
  if (msg.header.msg_type == giop::MsgType::Reply) {
    auto it = pending_.find(msg.reply->request_id);
    if (it == pending_.end()) return;  // late/duplicate reply
    Future<cdr::Bytes> fut = it->second;
    pending_.erase(it);
    try {
      fut.resolve(parse_reply(msg));
    } catch (const SystemException&) {
      fut.reject(std::current_exception());
    }
  }
}

}  // namespace eternal::orb
