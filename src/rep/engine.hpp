// The replication engine — the paper's primary contribution.
//
// One Engine runs per processor (the Eternal "Replication Mechanisms +
// Interceptor" pair). It observes every message on the totally-ordered
// group channel and implements:
//
//  * object groups with ACTIVE, WARM_PASSIVE and COLD_PASSIVE replication,
//    transparently invocable from outside the group;
//  * unique operation identifiers and duplicate detection & suppression —
//    receiver-side (never execute the same operation twice; retransmit the
//    logged reply for a duplicate invocation) and sender-side (an active
//    replica whose sibling's copy is delivered before its own staggered
//    send cancels the send);
//  * nested operations across groups of mixed replication styles, with
//    coroutine-based executions suspended on nested replies — suspension
//    and resumption are driven purely by the delivered total order, so all
//    replicas interleave identically (the paper's multithreading lesson);
//  * three-tier state transfer (application / ORB / infrastructure state)
//    for joining or recovering replicas, captured at an ordered marker so
//    processing never stops;
//  * passive-replication state updates (postimages) and primary failover
//    with re-invocation under the original operation identifiers;
//  * partition support: primary-component determination, continued
//    operation in secondary components, fulfillment-operation queues, and
//    state reconciliation + fulfillment replay on remerge.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "giop/giop.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "orb/adapter.hpp"
#include "rep/oracle.hpp"
#include "rep/replica.hpp"
#include "rep/wire.hpp"
#include "totem/group.hpp"
#include "util/prng.hpp"

namespace eternal::dur {
class NodeDurability;
struct RecoveredGroup;
struct JournalRecord;
}  // namespace eternal::dur

namespace eternal::rep {

using sim::NodeId;

enum class Style : std::uint8_t {
  Active = 0,
  WarmPassive = 1,
  ColdPassive = 2,
};

std::string to_string(Style s);

struct GroupConfig {
  std::string name;
  Style style = Style::Active;
};

/// How long a client request stays valid: its FT_REQUEST expiration_time
/// is the send time plus this. Past it (in the target group's ordered time)
/// the request is refused, and a reply its client never acknowledged goes.
inline constexpr sim::Time kRequestRetention = 60 * sim::kSecond;

struct EngineParams {
  /// Sender-side suppression stagger per replica rank. Rank 0 sends at
  /// once; rank k waits k*stagger and cancels if a sibling's copy arrives.
  sim::Time send_stagger = 300;
  bool sender_side_suppression = true;  // ablation switch (experiment E5)
  /// Use Replica::get_update postimages rather than full state for passive
  /// updates (servants may override for incremental updates).
  sim::Time join_retry = 50 * sim::kMillisecond;
  std::uint32_t snapshot_chunk_bytes = 64 * 1024;
  /// Simulated cost of applying state updates, in microseconds per KiB.
  /// Models the CPU/IO work a real replica spends installing a postimage;
  /// it is what makes cold-passive promotion (which must apply the whole
  /// backlog before serving) visibly slower than warm-passive failover.
  /// 0 disables the model (unit tests).
  sim::Time update_apply_us_per_kib = 0;
  /// Divergence oracle cadence: every k-th state version, active replicas
  /// broadcast a state digest that is cross-compared (see rep/oracle.hpp).
  /// 0 (the default) disables the oracle; the disabled cost is one branch.
  std::uint64_t divergence_check_interval = 0;
};

/// The engine's `engine.*{node=N}` registry counters, zeroed at engine
/// construction so each simulated cluster starts fresh. Engine::stats()
/// hands them out; read a tally with `.value()`.
struct EngineCounters {
  obs::Counter& invocations_executed;
  obs::Counter& duplicate_invocations_dropped;
  obs::Counter& duplicate_replies_resent;
  obs::Counter& sends_suppressed;      // sender-side (invocations)
  obs::Counter& responses_suppressed;  // sender-side (responses)
  obs::Counter& state_updates_applied;
  obs::Counter& snapshots_served;
  obs::Counter& snapshots_applied;
  obs::Counter& failovers;             // this node became primary
  obs::Counter& fulfillment_recorded;
  obs::Counter& fulfillment_replayed;
  obs::Counter& state_digests_sent;    // divergence oracle broadcasts
  obs::Counter& divergences_detected;  // oracle mismatches reported
  obs::Counter& expired_refused;       // requests refused past expiration

  explicit EngineCounters(NodeId node);
};

/// Per-tier checkpoint sizes, reported by the E9 bench.
struct CheckpointSizes {
  std::size_t application = 0;   // tier 1
  std::size_t orb = 0;           // tier 2: per-client floors and replies
  std::size_t infrastructure = 0;  // tier 3: versions, logs, queues
  std::size_t total() const { return application + orb + infrastructure; }
};

class Client;
class ExecContext;

class Engine {
 public:
  Engine(sim::Simulation& sim, totem::GroupLayer& groups,
         EngineParams params = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  NodeId id() const { return groups_.id(); }
  sim::Simulation& simulation() { return sim_; }
  totem::GroupLayer& group_layer() { return groups_; }
  const EngineParams& params() const { return params_; }
  const EngineCounters& stats() const noexcept { return counters_; }

  /// Host a replica of an object group on this processor. `initial` marks
  /// the bootstrap replicas that start with authoritative (empty) state;
  /// replicas added later join unsynced and acquire state by transfer.
  void host(const GroupConfig& cfg, std::shared_ptr<Replica> replica,
            bool initial);
  /// Remove the local replica (deliberate removal, e.g. live upgrade).
  void unhost(const std::string& group);

  /// Discard all volatile state after a processor crash: replica objects,
  /// reply expectations, queued sends, the client stub. Call when the
  /// processor restarts — a real process loses all of this with the crash;
  /// replicas are re-acquired by hosting anew (state transfer).
  void reset_after_crash();
  bool hosts(const std::string& group) const {
    return local_.count(group) != 0;
  }

  std::shared_ptr<Replica> local_replica(const std::string& group) const;
  bool is_synced(const std::string& group) const;
  bool is_primary(const std::string& group) const;
  bool in_primary_component(const std::string& group) const;
  std::uint64_t state_version(const std::string& group) const;
  std::vector<NodeId> synced_members(const std::string& group) const;
  std::vector<NodeId> group_members(const std::string& group) const;
  std::size_t fulfillment_backlog(const std::string& group) const;
  CheckpointSizes checkpoint_sizes(const std::string& group) const;

  /// The node's default (unreplicated) client stub.
  Client& client();

  // --- durability & disaster recovery (src/dur + ft/recovery) ----------
  /// Attach the node's durability manager: the engine then journals every
  /// totally-ordered delivery addressed to a hosted group and cuts
  /// group-consistent checkpoints on the total order. nullptr detaches.
  void set_durability(dur::NodeDurability* d);
  dur::NodeDurability* durability() const noexcept { return durability_; }

  /// Enter recovery mode: outbound sends are suppressed (captured for the
  /// nested-invocation flush) until finish_recovery().
  void begin_recovery();
  /// Host `cfg` with state restored from a durable checkpoint, already
  /// synced — no state transfer. Call between begin_recovery() and the
  /// journal replay.
  void host_recovered(const GroupConfig& cfg,
                      std::shared_ptr<Replica> replica,
                      const dur::RecoveredGroup& rec);
  /// Cut a durable checkpoint of `group` now, off the interval schedule
  /// (benches). False when there is no durability manager, or the group is
  /// not hosted, synced and quiescent here.
  bool checkpoint_now(const std::string& group);
  /// Feed one journaled delivery back through the normal routing path
  /// (dedup, logging, execution, nested-reply resolution).
  void replay_journal_record(const dur::JournalRecord& rec);
  /// Leave recovery mode. `authoritative` (whole-domain recovery: the
  /// tapes are the whole lineage): re-issue nested invocations whose
  /// replies never reached the durable tape and announce synced marks.
  /// Otherwise (one node rejoining a group that kept running) the disk
  /// state is only a warm start: every rebuilt group rejoins unsynced
  /// through the ordinary join marker and serves nothing until a snapshot
  /// syncs it; the live replicas already carried the replayed executions.
  void finish_recovery(bool authoritative);
  bool recovering() const noexcept { return recovering_; }
  std::uint64_t recovery_replayed() const noexcept {
    return recovery_replayed_;
  }
  /// Client op-id floor restored from disk: the next client created on
  /// this node starts its op_seq counter above every identifier the
  /// pre-crash life could have issued.
  void set_client_op_floor(std::uint64_t floor) noexcept {
    client_op_floor_ = floor;
  }
  std::uint64_t client_op_floor() const noexcept { return client_op_floor_; }

  /// Sender flow control, surfaced from the Totem send queue: when true,
  /// Client::invoke refuses new work with TRANSIENT until the token has
  /// drained the backlog.
  bool send_queue_full() const { return groups_.node().send_queue_full(); }

  /// Observer for every group view change (hosted or not); used by the
  /// FT-CORBA management layer (ReplicationManager).
  void set_view_observer(std::function<void(const totem::GroupView&)> fn) {
    view_observer_ = std::move(fn);
  }

  /// Observer for divergence-oracle reports (state digests disagreeing
  /// between active replicas); used by the ReplicationManager to push a
  /// structured fault report through the FaultNotifier.
  void set_divergence_observer(
      std::function<void(const DivergenceReport&)> fn) {
    divergence_observer_ = std::move(fn);
  }

  // --- used by Client and by nested-invocation contexts -------------------
  struct PendingReply {
    orb::Future<cdr::Bytes> future;
  };
  /// Send an invocation envelope (subject to sender-side suppression when
  /// `rank` > 0) and register interest in its response under `reply_group`.
  void send_invocation(Envelope env, std::uint32_t rank);
  /// Register a future to resolve when a Response for op arrives addressed
  /// to reply_group.
  orb::Future<cdr::Bytes> expect_reply(const std::string& reply_group,
                                       const OperationId& op);
  void cancel_reply(const std::string& reply_group, const OperationId& op);

 private:
  friend class Client;
  friend class ExecContext;

  struct LoggedInvocation {
    Envelope env;
    GlobalSeq carrier;
    bool completed = false;  // a StateUpdate/read-only response was seen
  };

  struct Execution;

  static constexpr sim::Time kNever = ~sim::Time{0};

  /// One operation a client has not acknowledged yet.
  struct RetainedOp {
    OperationId op;
    sim::Time expires = 0;  // FT_REQUEST expiration_time (0 = never)
    /// Executed here, or retired by a passive state update. Operations in
    /// progress are not checkpointed in tier 2: they are re-created from
    /// tier 3's logged invocations (the passive log, or the executions an
    /// active group had running at the cut).
    bool done = false;
    cdr::WireBuf reply;  // logged reply; empty while running or at a backup
  };
  /// Exactly-once bookkeeping for one client of a group — a client stub, or
  /// the parent group of nested invocations — keyed by its reply group.
  struct ClientLog {
    /// Every operation of this client ordered below the floor has been
    /// answered: a late copy is a duplicate by construction.
    OperationId floor;
    std::vector<RetainedOp> ops;  // sorted by op id, all >= floor
  };
  using ClientLogs = std::map<std::string, ClientLog, std::less<>>;

  enum class SyncState : std::uint8_t { Unsynced, AwaitingSnapshot, Synced };

  struct LocalGroup {
    GroupConfig cfg;
    std::shared_ptr<Replica> replica;

    std::vector<NodeId> members;   // last delivered group view
    std::set<NodeId> synced_set;   // ordered-consistent synced members
    /// Members whose last JoinRequest declared prior state (resync, not
    /// bootstrap) — ordered-consistent, like synced_set.
    std::set<NodeId> history_set;
    /// Post-merge status declarations: node -> claims-synced. After a view
    /// gains members, both sides' pre-merge knowledge is cleared and this
    /// map is rebuilt from ordered SyncedMark/JoinRequest messages; the
    /// self-promotion fallback waits until every member has declared.
    std::map<NodeId, bool> member_status;
    bool had_state = false;        // this replica has ever held group state
    bool primary_component = true;
    std::uint64_t state_version = 0;

    SyncState sync = SyncState::Unsynced;
    std::uint32_t join_round = 0;
    sim::TimerHandle join_retry_timer;
    /// Post-marker deliveries, replayed in order once the snapshot lands:
    /// invocations, state updates and the replies to nested invocations
    /// (so executions the joiner re-runs resume exactly as the donor's did).
    struct Buffered {
      Envelope env;
      GlobalSeq carrier;
      NodeId sender = 0;
      cdr::WireBuf frame;  // journaled once the snapshot is on disk
    };
    std::vector<Buffered> buffered;
    std::map<std::uint32_t, cdr::WireBuf> snapshot_chunks;
    std::uint32_t snapshot_donor = 0;
    /// Donor side: snapshot serves deferred until the executions running at
    /// the joiner's marker finish (handle_join_request / finish_execution).
    /// A suspended execution lands its state mutation only at completion,
    /// and the joiner has none of the nested replies delivered before its
    /// marker, so the cut waits for those; executions started after the
    /// marker ride in the snapshot and the joiner re-runs them.
    struct PendingServe {
      std::uint32_t joiner = 0;
      std::uint32_t round = 0;
      std::vector<OperationId> waiting;  // running at the marker
    };
    std::vector<PendingServe> pending_serves;

    // Tier-2 (ORB) state: per client, the acknowledged floor and the
    // operations above it. Logged replies are refcounted frame slices, so
    // logging and resending never copy the GIOP bytes.
    ClientLogs clients;
    /// Ordered time: the newest invocation timestamp delivered to the
    /// group. Expirations are judged against it, so every replica refuses
    /// and evicts at the same total-order point.
    sim::Time clock = 0;
    /// No retained operation expires before this (a lower bound).
    sim::Time next_expiry = kNever;

    // Passive machinery.
    std::deque<LoggedInvocation> invocation_log;  // awaiting StateUpdate
    std::deque<std::pair<Envelope, GlobalSeq>> exec_queue;  // serialized
    bool executing = false;
    bool exec_hold = false;  // promotion still applying the update backlog
    sim::TimerHandle exec_hold_timer;
    std::map<OperationId, cdr::WireBuf> pending_updates;  // cold: unapplied
    std::deque<OperationId> pending_update_order;
    /// op -> (operation name, state version) for cold pending updates
    std::map<OperationId, std::pair<std::string, std::uint64_t>>
        pending_update_meta;

    // Executions in flight (active replicas / passive primary).
    std::map<OperationId, std::unique_ptr<Execution>> running;

    // Tier-3 (infrastructure) state.
    std::deque<Envelope> fulfillment_queue;
    bool replaying_buffer = false;

    // Durability (src/dur): last cut boundary + a cut deferred until the
    // group reaches a quiescent total-order point.
    std::uint64_t last_checkpoint_version = 0;
    bool checkpoint_due = false;
    /// Rebuilt from disk by the recovery in progress (host_recovered
    /// until finish_recovery).
    bool recovered = false;

    /// Total-order position of the last delivery applied to the group (the
    /// journaled kinds: invocations, state updates, nested replies).
    GlobalSeq applied;
    /// The durable prefix this state descends from: `applied` at the end
    /// of a whole-domain recovery's replay, inherited through snapshots;
    /// zero when the state never came off a disk.
    GlobalSeq lineage;
    /// Members' lineages as announced by their ordered SyncedMarks and
    /// JoinRequests.
    std::map<NodeId, GlobalSeq> lineages;
  };

  struct PendingSend {
    Envelope env;
    sim::TimerHandle timer;
    bool is_response = false;
  };

  // --- message handling ---
  void on_message(const totem::GroupMessage& m);
  /// `frame` is the delivered bytes `env` was decoded from.
  void route(const Envelope& env, const GlobalSeq& carrier, NodeId sender,
             const cdr::WireBuf& frame);
  void handle_invocation(LocalGroup& g, const Envelope& env,
                         const GlobalSeq& carrier);
  void handle_response(const Envelope& env, NodeId sender);
  void handle_state_update(LocalGroup& g, const Envelope& env);
  void handle_join_request(LocalGroup& g, const Envelope& env);
  void handle_snapshot(LocalGroup& g, const Envelope& env);
  void handle_synced_mark(LocalGroup& g, const Envelope& env);
  void handle_state_digest(LocalGroup& g, const Envelope& env);

  /// Broadcast this replica's state digest for the just-finished operation
  /// (divergence oracle, active style only).
  void send_state_digest(LocalGroup& g, const OperationId& op,
                         const std::string& op_name);

  // --- execution ---
  void start_execution(LocalGroup& g, const Envelope& env,
                       const GlobalSeq& carrier);
  void finish_execution(LocalGroup& g, Execution& exec,
                        std::exception_ptr error);
  void pump_exec_queue(LocalGroup& g);
  bool i_am_primary(const LocalGroup& g) const;
  std::uint32_t my_rank(const LocalGroup& g) const;

  // --- responses & suppression ---
  void queue_send(Envelope env, std::uint32_t rank, bool is_response);
  void resend_logged_reply(LocalGroup& g, const Envelope& inv,
                           const cdr::WireBuf& reply);
  /// Answer an invocation past its expiration with TIMEOUT instead of
  /// executing it (its reply, if it ever ran, may be gone).
  void refuse_expired(LocalGroup& g, const Envelope& inv);

  // --- reply retention ---
  /// Apply an ordered invocation's clock, watermark and expiry to its
  /// client's log (evicting what they release) and return that log.
  static ClientLog& admit(LocalGroup& g, const Envelope& inv);
  /// Drop every retained operation whose expiration the clock has passed.
  static void expire_retained(LocalGroup& g);
  /// Record a new operation as in progress in its client's log.
  static void retain(LocalGroup& g, ClientLog& client, const Envelope& inv);
  static RetainedOp* find_op(ClientLog& client, const OperationId& op);
  /// The retained entry for invocation `inv`'s operation, or nullptr.
  static RetainedOp* find_retained(LocalGroup& g, const Envelope& inv);
  static bool has_reply(LocalGroup& g, const Envelope& inv);
  /// The watermark a running execution of `g` sends with nested requests.
  static OperationId nested_ack(const LocalGroup& g);

  // --- membership / partitions ---
  void on_group_view(const totem::GroupView& v);
  void check_promotion(LocalGroup& g, bool was_primary);
  void begin_resync(LocalGroup& g);
  void maybe_self_promote(LocalGroup& g);
  /// The member of `candidates` with the longest announced lineage, the
  /// lowest id among equals; nullopt when no member is a candidate.
  static std::optional<NodeId> longest_lineage(
      const LocalGroup& g, const std::set<NodeId>& candidates);
  void replay_fulfillment(LocalGroup& g);

  // --- state transfer ---
  /// The three-tier checkpoint, written into `w` — the durable record's
  /// blob sequence, a state-transfer snapshot, or a size probe.
  void encode_checkpoint_into(cdr::Writer& w, const LocalGroup& g,
                              CheckpointSizes* sizes) const;
  void apply_checkpoint(LocalGroup& g, const cdr::WireBuf& blob);
  void serve_snapshot(LocalGroup& g, std::uint32_t joiner,
                      std::uint32_t round);
  /// Execution `op` finished: serve the deferred snapshots waiting on it.
  void flush_pending_serves(LocalGroup& g, const OperationId& op);
  void complete_sync(LocalGroup& g);
  void broadcast_synced_mark(LocalGroup& g);

  void log_reply(LocalGroup& g, const Envelope& inv, cdr::WireBuf reply);
  /// Frames an outbound GIOP request carrying the FT_REQUEST context into
  /// the group arena (client and nested invocations).
  cdr::WireBuf frame_request(std::uint32_t request_id, const std::string& group,
                             const std::string& op,
                             const giop::FtRequestContext& ft,
                             std::span<const std::uint8_t> args);
  void send_envelope(const std::string& totem_group, const Envelope& env);

  // --- durability hooks ---
  /// Journal a delivery addressed to a synced hosted group (raw frame
  /// bytes, so replay re-routes exactly what arrived). A joiner's buffered
  /// deliveries are journaled after the checkpoint of its snapshot.
  void maybe_journal_delivery(const Envelope& env, const GlobalSeq& carrier,
                              NodeId sender, const cdr::WireBuf& frame);
  /// Cut a checkpoint when the group crossed the interval boundary *and*
  /// sits at a quiescent total-order point (no executions or logged ops in
  /// flight) — deterministic across replicas, so every node cuts at the
  /// same version with the same state.
  void maybe_cut_checkpoint(LocalGroup& g);
  /// A checkpoint may be cut now: durable, synced, nothing in flight.
  bool can_cut_checkpoint(const LocalGroup& g) const;
  void cut_checkpoint(LocalGroup& g);

  // --- execution pooling ---
  /// A parked Execution re-armed for `id`, or a fresh one if the pool is
  /// empty. Steady-state operations recycle the context and string
  /// allocations instead of heap-allocating per invocation.
  std::unique_ptr<Execution> acquire_execution(const OperationId& id);
  /// Drops the execution's frame references and result Writer (so it pins
  /// no slabs while parked) and returns it to the pool.
  void release_execution(std::unique_ptr<Execution> ex);

  // --- observability ---
  /// Mirror an OperationId into the layer-neutral trace key.
  static obs::OpRef op_ref(const OperationId& op) noexcept {
    return obs::OpRef{op.parent.epoch, op.parent.seq, op.op_seq};
  }
  /// Single-branch guard: trace detail strings are only built when enabled.
  bool tracing() const noexcept { return tracer_.enabled(); }
  void trace(const OperationId& op, obs::SpanEvent ev, std::string detail) {
    tracer_.record(sim_.now(), id(), op_ref(op), ev, std::move(detail));
  }
  /// Instantaneous span in the causal chain `ctx`; returns its span id.
  std::uint64_t trace_ctx(const OperationId& op, obs::SpanEvent ev,
                          const obs::TraceContext& ctx, std::string detail) {
    return tracer_.span(sim_.now(), sim_.now(), id(), op_ref(op), ev, ctx,
                        std::move(detail));
  }
  void journal(obs::EventKind kind, std::string subject, std::string detail);

  sim::Simulation& sim_;
  totem::GroupLayer& groups_;
  EngineParams params_;
  EngineCounters counters_;
  obs::Tracer& tracer_;
  DivergenceOracle oracle_;

  std::map<std::string, LocalGroup> local_;
  /// reply_group -> (op -> future) for in-flight outbound operations.
  std::map<std::string, std::map<OperationId, orb::Future<cdr::Bytes>>>
      expected_replies_;
  /// Sender-side suppression: staggered sends cancellable on sibling copy.
  std::map<OperationId, PendingSend> pending_invocation_sends_;
  std::map<OperationId, PendingSend> pending_response_sends_;
  std::vector<std::unique_ptr<Execution>> exec_pool_;  // parked executions

  std::unique_ptr<Client> client_;
  std::function<void(const totem::GroupView&)> view_observer_;
  std::function<void(const DivergenceReport&)> divergence_observer_;

  /// Scratch envelope for on_message/replay decode: strings reuse their
  /// capacity across deliveries (handlers copy what they keep).
  Envelope rx_env_;
  /// Scratch header for frame_request: its context vector and operation
  /// string keep their capacity, so framing a request allocates nothing.
  giop::RequestHeader tx_request_;

  // Durability & recovery.
  dur::NodeDurability* durability_ = nullptr;
  bool recovering_ = false;
  std::uint64_t recovery_replayed_ = 0;
  std::uint64_t client_op_floor_ = 0;
  /// Nested invocations regenerated by the replay; the subset still
  /// awaiting replies at finish_recovery() is re-sent live.
  std::vector<Envelope> recovery_pending_sends_;
};

/// Handle to one in-flight client invocation. Returned by Client::invoke;
/// any number may be outstanding per client (pipelining). Completable three
/// ways: `co_await inv` from a coroutine, `inv.then(cb)` for callbacks, or
/// `inv.get(timeout)` which drives the simulation until the reply arrives
/// (so `client.invoke(...).get()` is the blocking call). Abandoning via
/// get()'s timeout or cancel() removes only *this* operation's retransmit
/// state — sibling pipelined invocations are untouched.
class Invocation {
 public:
  Invocation() = default;

  bool valid() const noexcept { return client_ != nullptr; }
  const OperationId& id() const noexcept { return id_; }
  bool ready() const noexcept { return future_.ready(); }
  orb::Future<cdr::Bytes>& future() noexcept { return future_; }

  /// Callback completion; fires immediately if already settled.
  void then(std::function<void(orb::Future<cdr::Bytes>::State&)> cb) {
    future_.then(std::move(cb));
  }

  /// Coroutine completion.
  auto operator co_await() const { return future_.operator co_await(); }

  /// Drive the simulation until the reply arrives or `timeout` elapses; on
  /// timeout, abandon this operation (stop its retransmits, ignore a late
  /// reply) and throw the TIMEOUT system exception.
  cdr::Bytes get(sim::Time timeout = 5 * sim::kSecond);

  /// Abandon the operation: cancel retransmission and reply interest. The
  /// operation may still execute server-side; the reply is dropped.
  void cancel();

 private:
  friend class Client;
  Invocation(Client* client, OperationId id, orb::Future<cdr::Bytes> future)
      : client_(client), id_(id), future_(std::move(future)) {}

  Client* client_ = nullptr;
  OperationId id_{};
  orb::Future<cdr::Bytes> future_;
};

/// Client stub: the unreplicated invoker used by applications, examples and
/// benches. Retransmits unanswered invocations under the same operation
/// identifier (the FT_REQUEST pattern), so a failover never causes a lost
/// or duplicated operation. Any number of invocations may be outstanding at
/// once (each under its own operation identifier); when the Totem send
/// queue is full, or the configured max_outstanding is reached, invoke
/// pushes back by throwing the TRANSIENT system exception.
class Client {
 public:
  Client(Engine& engine, std::string name);
  ~Client();

  const std::string& reply_group() const { return reply_group_; }

  /// Asynchronous, pipelined invocation. The handle's future resolves with
  /// the GIOP reply body or rejects with the carried SystemException.
  /// Throws TRANSIENT (backpressure) when the send queue is full.
  Invocation invoke(const std::string& group, const std::string& op,
                    std::span<const std::uint8_t> args);

  void set_retry_interval(sim::Time t) { retry_interval_ = t; }
  /// Client-side pipelining cap; 0 = no cap (engine backpressure only).
  void set_max_outstanding(std::size_t n) { max_outstanding_ = n; }
  std::size_t outstanding() const noexcept { return outstanding_.size(); }

  /// Next unused op_seq — persisted by the durability layer so a client
  /// recreated after a restart never reuses an identifier.
  std::uint64_t next_op() const noexcept { return next_op_; }
  /// Raise the op_seq counter to at least `floor` (recovery only).
  void seed_next_op(std::uint64_t floor) noexcept {
    next_op_ = std::max(next_op_, floor);
  }

 private:
  friend class Invocation;
  void retransmit_arm(const OperationId& op);
  /// Per-operation cleanup: cancel the retry timer, drop the envelope and
  /// the reply expectation for `op` — and nothing else.
  void abandon(const OperationId& op);

  Engine& engine_;
  std::string reply_group_;
  obs::Summary& rtt_us_;  // client-observed end-to-end latency
  std::uint64_t next_op_ = 1;
  sim::Time retry_interval_ = 100 * sim::kMillisecond;
  std::size_t max_outstanding_ = 0;
  struct Outstanding {
    Envelope env;
    sim::TimerHandle retry;
    std::uint64_t client_span = 0;  // ClientSend span, parent for retries
  };
  std::map<OperationId, Outstanding> outstanding_;
};

}  // namespace eternal::rep
