// Simulated network: private point-to-point channels plus a broadcast
// bulletin.
//
// The paper assumes "a communication infrastructure composed of a broadcast
// channel and of private channels among the agents" (§3) and, for the cost
// accounting, "no explicit broadcast facilities ... implemented using
// point-to-point message transmissions" (Thm. 11). SimNetwork models exactly
// that: unicast queues with round-based delivery, and a publish operation
// that is billed as n-1 unicasts.
//
// Delivery is deterministic. Fault injection (drop/corrupt/delay) is a hook
// on each channel, used by the robustness tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/annotations.hpp"
#include "support/check.hpp"

namespace dmw::net {

using AgentId = std::uint32_t;  ///< dense agent index 0..n-1

/// A sealed unicast envelope.
struct Envelope {
  AgentId from = 0;
  AgentId to = 0;
  std::uint32_t kind = 0;  ///< protocol-defined message kind tag
  std::vector<std::uint8_t> payload;
  /// Flow-trace id stamped by SimNetwork::send while tracing is on (0 =
  /// unstamped). Simulator-local: excluded from wire_size() and the codec.
  std::uint64_t msg_id = 0;

  /// Wire size charged to the traffic statistics: fixed header + payload.
  std::size_t wire_size() const { return 12 + payload.size(); }

  /// Transport codec (from, to, kind, length-prefixed payload). wire_size()
  /// stays the *billed* size of the paper's 12-byte-header cost model; the
  /// codec is the actual byte image a real transport would ship.
  std::vector<std::uint8_t> encode() const;
  static Envelope decode(std::span<const std::uint8_t> bytes);
};

/// A published (broadcast) record. Readable by everyone including observers.
struct Posting {
  AgentId from = 0;
  std::uint32_t kind = 0;
  std::vector<std::uint8_t> payload;
  std::uint64_t round = 0;  ///< round in which it became visible
  /// Flow-trace id stamped by SimNetwork::publish while tracing is on (0 =
  /// unstamped). Simulator-local: excluded from wire_size() and the codec.
  std::uint64_t msg_id = 0;

  std::size_t wire_size() const { return 12 + payload.size(); }

  /// Transport codec (from, kind, round, length-prefixed payload).
  std::vector<std::uint8_t> encode() const;
  static Posting decode(std::span<const std::uint8_t> bytes);
};

// ---- Communication ledger --------------------------------------------------

/// Phase value for traffic recorded before any set_comm_phase() call.
inline constexpr std::uint32_t kCommPhaseUnattributed = 0xffffffffu;

/// Attribution key of one ledger cell: protocol phase and network round the
/// message left in, its kind tag, and its sender.
struct CommKey {
  std::uint32_t phase = kCommPhaseUnattributed;
  std::uint64_t round = 0;
  std::uint32_t kind = 0;
  AgentId sender = 0;

  friend bool operator==(const CommKey&, const CommKey&) = default;
  friend bool operator<(const CommKey& a, const CommKey& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.round != b.round) return a.round < b.round;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.sender < b.sender;
  }
};

/// Counters of one ledger cell. `messages`/`wire_bytes` count send/publish
/// operations at their billed wire size; the p2p fields apply the paper's
/// broadcast-as-(n-1)-unicasts equivalence (Thm. 11), matching TrafficStats.
struct CommCounts {
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;

  CommCounts& operator+=(const CommCounts& o) {
    messages += o.messages;
    wire_bytes += o.wire_bytes;
    p2p_messages += o.p2p_messages;
    p2p_bytes += o.p2p_bytes;
    return *this;
  }
  friend bool operator==(const CommCounts&, const CommCounts&) = default;
};

/// One label-resolved ledger row, ordered by key.
struct CommRow {
  CommKey key;
  std::string phase_label;
  std::string kind_name;
  CommCounts counts;
};

/// Register a human-readable name for a message-kind tag (driver/static-init
/// only; `name` must have static storage duration — the registry keeps the
/// pointer for flow-event labels). Idempotent; last registration wins.
void register_comm_kind(std::uint32_t kind, const char* name);

/// Registered name for `kind`, or "kind<N>" for unregistered tags.
std::string comm_kind_name(std::uint32_t kind);

/// Registered static-storage label for `kind`, or "unregistered". This is
/// the pointer flow events carry (trace keeps it, not a copy).
const char* comm_kind_label(std::uint32_t kind);

/// Per-agent and aggregate traffic statistics.
struct TrafficStats {
  std::uint64_t unicast_messages = 0;
  std::uint64_t unicast_bytes = 0;
  std::uint64_t broadcast_messages = 0;  ///< publish operations
  std::uint64_t broadcast_bytes = 0;     ///< payload bytes published
  /// Point-to-point equivalents (each publish billed as n-1 unicasts).
  std::uint64_t p2p_equivalent_messages = 0;
  std::uint64_t p2p_equivalent_bytes = 0;

  friend bool operator==(const TrafficStats&, const TrafficStats&) = default;
  TrafficStats& operator+=(const TrafficStats& o) {
    unicast_messages += o.unicast_messages;
    unicast_bytes += o.unicast_bytes;
    broadcast_messages += o.broadcast_messages;
    broadcast_bytes += o.broadcast_bytes;
    p2p_equivalent_messages += o.p2p_equivalent_messages;
    p2p_equivalent_bytes += o.p2p_equivalent_bytes;
    return *this;
  }
};

/// Fault-injection decision for one in-flight envelope.
struct FaultAction {
  bool drop = false;
  std::uint32_t extra_delay_rounds = 0;
  /// If set, replaces the payload (models corruption).
  std::optional<std::vector<std::uint8_t>> replace_payload;
};

using FaultInjector = std::function<FaultAction(const Envelope&)>;

/// Round-synchronous simulated network.
///
/// Messages sent during round r are visible to receivers from round r+1
/// (plus any injected delay). advance_round() moves the clock.
///
/// Concurrency: send()/publish()/receive()/read_bulletin() may be called
/// from ThreadPool workers while a protocol stage is in flight. Queue
/// mutations take short per-inbox (or pending-postings) locks — each inbox
/// deque is DMW_GUARDED_BY its own mutex, machine-checked by clang's
/// thread-safety pass; an uncontended lock is noise next to the crypto per
/// message, so sequential runs pay it too. Traffic statistics stay
/// lock-free on the hot path: after enable_concurrency(workers), stat
/// updates from pool threads write a per-worker accumulator slot selected
/// via ThreadPool::current_worker_id(), folded into the base counters at
/// the next advance_round(). Everything round-structural —
/// advance_round(), in_flight(), stats(), reset_stats(),
/// set_fault_injector() — remains driver-thread-only (the protocol runner
/// calls them between stage barriers). A fault injector installed on a
/// concurrent run is invoked from worker threads and must be thread-safe.
class SimNetwork {
 public:
  explicit SimNetwork(std::size_t n_agents);

  std::size_t agent_count() const { return n_; }
  std::uint64_t round() const { return round_; }

  /// Private channel send (Phase II share distribution).
  void send(AgentId from, AgentId to, std::uint32_t kind,
            std::vector<std::uint8_t> payload);

  /// Broadcast publish (commitments, Λ/Ψ, disclosures). Billed as n-1
  /// unicasts in the point-to-point-equivalent statistics.
  void publish(AgentId from, std::uint32_t kind,
               std::vector<std::uint8_t> payload);

  /// Drain the unicast messages addressed to `to` that are deliverable in
  /// the current round.
  std::vector<Envelope> receive(AgentId to);

  /// All postings visible in the current round (index into the global log).
  /// Callers track their own read cursor.
  const std::vector<Posting>& bulletin() const { return bulletin_; }

  /// Postings from `cursor` onward that are already visible; advances cursor.
  std::vector<Posting> read_bulletin(std::size_t& cursor) const;

  void advance_round();

  /// Number of messages/postings still in flight (sent but not yet
  /// visible). The protocol runner advances rounds until the network is
  /// idle, so injected delivery delays cost extra rounds instead of
  /// spuriously aborting the (round-synchronized) protocol.
  std::size_t in_flight() const;

  void set_fault_injector(FaultInjector injector) {
    injector_ = std::move(injector);
  }

  /// Allocate `workers` per-worker traffic-accumulator slots so stat
  /// updates from pool threads stay lock-free. Idempotent; call before the
  /// first concurrent stage. With no slots (the default), counters are
  /// updated directly — the historical single-threaded behaviour. (Inbox
  /// and posting queues are always mutex-guarded, concurrency or not.)
  void enable_concurrency(std::size_t workers);

  /// Fold every per-worker accumulator into the base counters. Called
  /// automatically by advance_round(); callers only need it when reading
  /// stats mid-round after a concurrent stage.
  void flush_worker_stats();

  /// Whole-run totals. Complete after advance_round()/flush_worker_stats();
  /// during a concurrent stage, workers' traffic is still parked in their
  /// accumulator slots.
  const TrafficStats& stats() const { return totals_; }
  const TrafficStats& stats_for(AgentId a) const {
    DMW_REQUIRE(a < n_);
    return per_agent_[a];
  }
  void reset_stats();

  /// Attribute subsequent traffic to `phase` in the communication ledger
  /// (the label is copied). Driver-only, between stage barriers — the value
  /// is epoch-frozen for workers, like round(). The protocol runners call
  /// this at the top of every step/epoch; traffic outside any step lands in
  /// kCommPhaseUnattributed.
  void set_comm_phase(std::uint32_t phase, std::string_view label);

  /// Label-resolved (phase, round, kind, sender) ledger rows in key order.
  /// Recording is gated on trace::on() (the ledger is empty in untraced
  /// runs, keeping the tracing-off send path at one extra branch). Complete
  /// after advance_round()/flush_worker_stats(); driver-only.
  std::vector<CommRow> comm_rows() const;

 private:
  struct Pending {
    Envelope env;
    std::uint64_t deliver_round;
  };

  /// One recipient's unicast queue paired with the mutex that guards it.
  /// Pairing them in one struct (instead of a parallel mutex array) is what
  /// lets the capability analysis tie the deque to *its* lock. Held by
  /// unique_ptr because Mutex is immovable.
  struct Inbox {
    Mutex mutex;
    std::deque<Pending> items DMW_GUARDED_BY(mutex);
  };

  /// One worker's private counters; padded out by the vectors' allocation
  /// granularity rather than explicit alignment — contention, not false
  /// sharing, is what the design removes.
  struct WorkerStats {
    TrafficStats totals;
    std::vector<TrafficStats> per_agent;
    /// Current-round ledger cells keyed (kind << 32) | sender; phase and
    /// round are epoch-frozen during a stage, so they attach at fold time.
    std::map<std::uint64_t, CommCounts> comm;
  };

  /// Stat targets for the calling thread: the per-worker slot on a pool
  /// thread with concurrency enabled, the base counters otherwise.
  std::pair<TrafficStats*, TrafficStats*> stat_slots(AgentId from);

  /// Ledger cell map for the calling thread (same slot selection rule).
  std::map<std::uint64_t, CommCounts>& comm_slot();

  /// Tracing-on bookkeeping shared by send()/publish(): bump the calling
  /// thread's ledger cell and stamp + flow-trace the message id.
  std::uint64_t record_comm(AgentId from, std::uint32_t kind,
                            std::uint64_t p2p_fanout, std::uint64_t size);

  /// Fold every slot's current-round ledger cells into the ledger under
  /// (comm_phase_, round_) and bump the per-kind net/* registry counters.
  /// Driver-only, called by flush_worker_stats() before round_ advances.
  void fold_comm_cells();

  const std::size_t n_;
  // dmwlint:allow(guarded-member) epoch-frozen: written only by
  // advance_round() on the driver thread between stage barriers; workers
  // read a constant value for the whole stage.
  std::uint64_t round_ = 0;
  // dmwlint:allow(guarded-member) the pointer vector is built once in the
  // ctor and never resized; each Inbox's deque is guarded by its own mutex.
  std::vector<std::unique_ptr<Inbox>> inboxes_;  // per recipient
  // dmwlint:allow(guarded-member) epoch-frozen: grows only inside
  // advance_round() (driver, between barriers); stage-concurrent readers
  // only ever see the immutable already-published prefix.
  std::vector<Posting> bulletin_;  // visible postings
  // mutable: in_flight() is logically const but must take the lock.
  mutable Mutex pending_mutex_;
  // Visible once round_ >= .round.
  std::vector<Posting> pending_postings_ DMW_GUARDED_BY(pending_mutex_);
  // dmwlint:allow(guarded-member) installed by set_fault_injector()
  // (driver-only, before the run); workers only invoke it afterwards.
  FaultInjector injector_;
  // dmwlint:allow(guarded-member) driver-only base counters: workers write
  // their own worker_stats_ slot instead (stat_slots), folded in here at
  // advance_round()/flush_worker_stats() on the driver thread.
  TrafficStats totals_;
  // dmwlint:allow(guarded-member) same discipline as totals_.
  std::vector<TrafficStats> per_agent_;

  /// Snapshot of totals_ at the last traced round boundary, so the
  /// per-round traffic histograms (support/trace.hpp) observe deltas.
  // dmwlint:allow(guarded-member) driver-only (advance_round tracing).
  TrafficStats traced_;

  // Concurrency support (empty/unused until enable_concurrency()).
  // dmwlint:allow(guarded-member) slot w is written only by pool worker w
  // during a stage and read/cleared only by the driver at barriers.
  std::vector<WorkerStats> worker_stats_;

  // ---- Communication ledger ----
  // dmwlint:allow(guarded-member) epoch-frozen like round_: written only by
  // set_comm_phase() on the driver thread between stage barriers.
  std::uint32_t comm_phase_ = kCommPhaseUnattributed;
  // dmwlint:allow(guarded-member) driver-only (set_comm_phase/comm_rows).
  std::map<std::uint32_t, std::string> comm_phase_labels_;
  // dmwlint:allow(guarded-member) same discipline as totals_: the base cell
  // map takes non-worker writes, worker cells live in worker_stats_, and
  // the driver folds both at barriers.
  std::map<std::uint64_t, CommCounts> comm_cells_;
  // dmwlint:allow(guarded-member) driver-only (fold_comm_cells/comm_rows).
  std::map<CommKey, CommCounts> comm_ledger_;
  /// Monotonic flow-trace message id; stamped only while tracing is on.
  /// Never reset: ids stay unique across reset_stats() so a multi-auction
  /// trace (dmw_serve) keeps its send->deliver arrows unambiguous.
  std::atomic<std::uint64_t> next_msg_id_{0};
};

}  // namespace dmw::net
