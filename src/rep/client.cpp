#include "rep/engine.hpp"

#include "orb/exceptions.hpp"

namespace eternal::rep {

cdr::Bytes Invocation::get(sim::Time timeout) {
  sim::Simulation& sim = client_->engine_.simulation();
  const sim::Time deadline = sim.now() + timeout;
  while (!future_.ready() && sim.now() < deadline) {
    if (!sim.step()) break;
  }
  if (!future_.ready()) {
    cancel();  // this operation only; pipelined siblings keep retrying
    throw orb::timeout();
  }
  return future_.take();
}

void Invocation::cancel() {
  if (client_ == nullptr) return;
  client_->abandon(id_);
}

Client::Client(Engine& engine, std::string name)
    : engine_(engine),
      reply_group_(std::move(name)),
      rtt_us_(obs::Registry::global().summary(
          obs::node_metric("client", "rtt_us", engine.id()))) {
  rtt_us_.reset();
}

Client::~Client() {
  // Retry timers capture `this`; silence them before it dangles.
  for (auto& [op, out] : outstanding_) out.retry.cancel();
}

Invocation Client::invoke(const std::string& group, const std::string& op,
                          std::span<const std::uint8_t> args) {
  // lint: hotpath — client-side send path, one pass per invocation
  // Backpressure: refuse new work while the Totem send queue is full or the
  // configured pipelining cap is reached. TRANSIENT tells the caller to
  // drain some outstanding invocations (step the simulation) and retry.
  if (engine_.send_queue_full() ||
      (max_outstanding_ != 0 && outstanding_.size() >= max_outstanding_)) {
    throw orb::transient();
  }

  OperationId op_id;
  // Top-level calls get a synthetic parent coordinate in epoch 0: unique
  // because exactly one unreplicated client driver exists per node.
  op_id.parent = GlobalSeq{0, static_cast<std::uint64_t>(engine_.id()) + 1};
  op_id.op_seq = next_op_++;

  giop::FtRequestContext ft;
  ft.client_id = reply_group_;
  ft.retention_id = static_cast<std::int32_t>(op_id.op_seq);
  ft.expiration_time = engine_.simulation().now() + kRequestRetention;

  Envelope env;
  env.kind = Kind::Invocation;
  env.op_id = op_id;
  env.target_group = group;
  env.reply_group = reply_group_;
  env.source_group = "";
  env.timestamp = engine_.simulation().now();
  env.expires = ft.expiration_time;
  // Completion watermark: the lowest operation still unanswered (this one,
  // if nothing older is). Every reply below it reached this client.
  env.ack = outstanding_.empty() ? op_id : outstanding_.begin()->first;
  env.giop = engine_.frame_request(static_cast<std::uint32_t>(op_id.op_seq),
                                   group, op, ft, args);

  auto& tracer = obs::Tracer::global();
  std::uint64_t client_span = 0;
  if (tracer.enabled()) {
    // Root of the causal chain: the trace id is derived from the operation
    // identifier, so retransmits and failover re-invocations (which reuse
    // the identifier) stay on the same trace.
    env.trace_id = op_id.hash();
    client_span = tracer.span(
        env.timestamp, env.timestamp, engine_.id(),
        obs::OpRef{op_id.parent.epoch, op_id.parent.seq, op_id.op_seq},
        obs::SpanEvent::ClientSend, {env.trace_id, 0},
        "group=" + group + " op=" + op);
    env.parent_span = client_span;
  }

  auto inner = engine_.expect_reply(reply_group_, op_id);
  orb::Future<cdr::Bytes> outer;

  Outstanding out;
  out.env = env;
  out.client_span = client_span;
  // lint:allow(hotpath-alloc: retry state must outlive the call; the envelope's GIOP payload is a refcounted frame slice)
  outstanding_.emplace(op_id, std::move(out));
  retransmit_arm(op_id);

  const sim::Time sent_at = env.timestamp;
  inner.then([this, op_id, outer, sent_at](
                 orb::Future<cdr::Bytes>::State& st) mutable {
    auto it = outstanding_.find(op_id);
    if (it != outstanding_.end()) {
      it->second.retry.cancel();
      outstanding_.erase(it);
    }
    rtt_us_.observe(
        static_cast<double>(engine_.simulation().now() - sent_at));
    if (st.error) {
      outer.reject(st.error);
    } else {
      outer.resolve(std::move(*st.value));
    }
  });

  engine_.send_invocation(std::move(env), /*rank=*/0);
  return Invocation(this, op_id, std::move(outer));
}

void Client::abandon(const OperationId& op) {
  auto it = outstanding_.find(op);
  if (it != outstanding_.end()) {
    it->second.retry.cancel();
    outstanding_.erase(it);
  }
  engine_.cancel_reply(reply_group_, op);
}

void Client::retransmit_arm(const OperationId& op) {
  auto it = outstanding_.find(op);
  if (it == outstanding_.end()) return;
  it->second.retry =
      engine_.simulation().after(retry_interval_, [this, op] {
        auto oit = outstanding_.find(op);
        if (oit == outstanding_.end()) return;
        // Same operation identifier: the server either answers from its
        // reply log or is executing the first copy — never twice.
        auto& tracer = obs::Tracer::global();
        if (tracer.enabled()) {
          const sim::Time now = engine_.simulation().now();
          tracer.span(now, now, engine_.id(),
                      obs::OpRef{op.parent.epoch, op.parent.seq, op.op_seq},
                      obs::SpanEvent::ClientRetransmit,
                      {oit->second.env.trace_id, oit->second.client_span});
        }
        engine_.send_invocation(oit->second.env, /*rank=*/0);
        retransmit_arm(op);
      });
}

}  // namespace eternal::rep
