#include "orb/adapter.hpp"

namespace eternal::orb {

void ObjectAdapter::activate(const std::string& key,
                             std::shared_ptr<Servant> servant) {
  servants_[key] = std::move(servant);
}

void ObjectAdapter::deactivate(const std::string& key) {
  servants_.erase(key);
}

std::shared_ptr<Servant> ObjectAdapter::find(const std::string& key) const {
  auto it = servants_.find(key);
  return it == servants_.end() ? nullptr : it->second;
}

cdr::WireBuf make_exception_reply(cdr::Arena& arena, std::uint32_t request_id,
                                  const SystemException& ex) {
  giop::ReplyHeader hdr;
  hdr.request_id = request_id;
  hdr.reply_status = giop::ReplyStatus::SystemException;
  giop::SystemExceptionBody body;
  body.exception_id = ex.exception_id();
  body.minor_code = ex.minor();
  body.completion_status = static_cast<std::uint32_t>(ex.completed());
  cdr::Writer enc;
  body.encode(enc);
  cdr::Writer w(arena);
  giop::encode_reply_into(w, hdr, enc.written());
  return w.seal();
}

cdr::WireBuf make_success_reply(cdr::Arena& arena, std::uint32_t request_id,
                                std::span<const std::uint8_t> body) {
  giop::ReplyHeader hdr;
  hdr.request_id = request_id;
  hdr.reply_status = giop::ReplyStatus::NoException;
  cdr::Writer w(arena, body.size() + 128);
  giop::encode_reply_into(w, hdr, body);
  return w.seal();
}

cdr::Bytes parse_reply(const giop::Message& msg) {
  if (!msg.reply.has_value()) throw comm_failure();
  switch (msg.reply->reply_status) {
    case giop::ReplyStatus::NoException:
      return msg.body.to_bytes();
    case giop::ReplyStatus::SystemException: {
      cdr::Decoder dec(msg.body);
      auto body = giop::SystemExceptionBody::decode(dec);
      throw SystemException(body.exception_id, body.minor_code,
                            static_cast<Completion>(body.completion_status));
    }
    default:
      throw comm_failure();
  }
}

cdr::WireBuf ObjectAdapter::handle_request_sync(cdr::Arena& arena,
                                                const cdr::WireBuf& request_wire,
                                                InvokerContext& ctx) const {
  giop::Message msg = giop::decode(request_wire);
  if (!msg.request.has_value()) throw cdr::MarshalError("not a request");
  const auto& req = *msg.request;
  const std::string key(reinterpret_cast<const char*>(req.object_key.data()),
                        req.object_key.size());
  try {
    auto servant = find(key);
    if (!servant) throw object_not_exist(key);
    cdr::Decoder args(msg.body);
    cdr::Writer result;
    Task task = servant->dispatch(req.operation, ctx, args, result);
    if (!task.done()) {
      // A suspending operation cannot be completed on the synchronous
      // (unreplicated) path.
      throw transient();
    }
    std::exception_ptr failure;
    task.on_complete([&](std::exception_ptr e) { failure = e; });
    if (failure) std::rethrow_exception(failure);
    return make_success_reply(arena, req.request_id, result.written());
  } catch (const SystemException& ex) {
    return make_exception_reply(arena, req.request_id, ex);
  } catch (const cdr::MarshalError&) {
    return make_exception_reply(
        arena, req.request_id,
        SystemException("IDL:omg.org/CORBA/MARSHAL:1.0", 0, Completion::No));
  }
}

}  // namespace eternal::orb
