// Per-node flight recorder — the post-mortem "black box".
//
// A fixed-size binary ring per node that absorbs both streams the system
// narrates itself through: trace spans (obs/trace) and journal events
// (obs/journal). Absorption is automatic: when the recorder is enabled,
// Tracer::span and Journal::emit forward every record here, so the last N
// records per node survive in fixed memory no matter how long the run is.
//
// The rings are dumped to a deterministic binary file either on demand
// (`dump()`) or automatically on fault conviction: ft::FaultNotifier::push
// calls `dump_on_fault()` when a dump directory is armed, so a divergence
// conviction or crash report leaves a flight-recorder file behind for
// `tools/obsctl` to analyze. Records are fixed-size cells (details are
// truncated to kDetailCap), so per-node memory is exactly
// capacity * sizeof(FlightRecord).
//
// File format (CDR, little-endian, see recorder.cpp):
//   magic "ETFR", version u32
//   node_count u32, then per node:
//     node u32, absorbed u64, record_count u32, records oldest-first
// Each record encodes time, end, node, stream, kind, OpRef, trace context
// and the (truncated) detail string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cdr/arena.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace eternal::obs {

/// One fixed-size cell of a flight-recorder ring: a trace span or a journal
/// event, normalized to a common layout so the offline analyzer can merge
/// both streams into one timeline.
struct FlightRecord {
  static constexpr std::size_t kDetailCap = 64;

  enum class Stream : std::uint8_t { Span = 0, Journal = 1 };

  std::uint64_t time = 0;
  std::uint64_t end = 0;
  std::uint32_t node = 0;
  Stream stream = Stream::Span;
  std::uint8_t kind = 0;  // SpanEvent (Span) or EventKind (Journal)
  OpRef op;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
  char detail[kDetailCap] = {};  // NUL-terminated, truncated

  SpanEvent span_event() const noexcept {
    return static_cast<SpanEvent>(kind);
  }
  EventKind journal_kind() const noexcept {
    return static_cast<EventKind>(kind);
  }
  std::string detail_str() const;
  void set_detail(const std::string& s);
  /// `[time] node=N span|journal kind op trace=... detail`
  std::string str() const;
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t per_node_capacity = 2048);

  bool enabled() const noexcept { return enabled_; }
  void enable(bool on = true) noexcept { enabled_ = on; }

  /// Drops all rings; capacity must be > 0.
  void set_per_node_capacity(std::size_t capacity);
  std::size_t per_node_capacity() const noexcept { return cap_; }
  void clear();

  /// Directory dump_on_fault writes into; empty = fault dumps disarmed.
  void set_dump_dir(std::string dir) { dump_dir_ = std::move(dir); }
  const std::string& dump_dir() const noexcept { return dump_dir_; }
  bool armed() const noexcept { return enabled_ && !dump_dir_.empty(); }

  void absorb_span(const TraceRecord& r);
  void absorb_event(const JournalEvent& e);
  /// Raw absorption — used by tests to build synthetic fixture dumps.
  void absorb(const FlightRecord& r);

  std::uint64_t absorbed() const noexcept { return absorbed_; }
  std::size_t nodes() const noexcept { return rings_.size(); }
  std::uint64_t dropped() const noexcept;

  /// Surviving records of one node, oldest first.
  std::vector<FlightRecord> records(std::uint32_t node) const;
  /// Surviving records of every node, merged and sorted by (time, node,
  /// span_id) — the cross-node timeline.
  std::vector<FlightRecord> records() const;

  /// Serialize every ring to the binary dump format.
  cdr::WireBuf encode() const;
  static std::vector<FlightRecord> decode(
      const std::vector<std::uint8_t>& bytes);

  /// Write the dump to `path`. Returns false on I/O failure.
  bool dump(const std::string& path) const;
  /// Read a dump file; throws std::runtime_error on missing/corrupt file.
  static std::vector<FlightRecord> load(const std::string& path);

  /// Fault-conviction hook (called by ft::FaultNotifier::push): when armed,
  /// write `<dump_dir>/flight-<ordinal>-<type>-t<when>.bin` and return the
  /// path; otherwise return "". The ordinal makes successive convictions
  /// distinct and the naming deterministic (simulated time, not wall time).
  std::string dump_on_fault(const std::string& type, std::uint64_t when);
  std::uint64_t fault_dumps() const noexcept { return fault_dumps_; }

  /// The process-wide default recorder the tracer and journal feed.
  static FlightRecorder& global();

 private:
  struct Ring {
    std::vector<FlightRecord> buf;
    std::size_t next = 0;     // write index once full
    std::uint64_t total = 0;  // absorbed into this ring
  };

  std::vector<FlightRecord> ring_records(const Ring& ring) const;

  bool enabled_ = false;
  std::size_t cap_ = 0;
  std::uint64_t absorbed_ = 0;
  std::uint64_t fault_dumps_ = 0;
  std::string dump_dir_;
  std::map<std::uint32_t, Ring> rings_;
};

}  // namespace eternal::obs
