// detlint:allow(static-local) — process-wide observability singleton
// (Meyers `global()`), shared diagnostics, not replica state.
#include "obs/recorder.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cdr/cdr.hpp"

namespace eternal::obs {

namespace {
constexpr std::uint32_t kMagic = 0x45544652;  // "ETFR"
constexpr std::uint32_t kVersion = 1;

void put_record(cdr::Writer& enc, const FlightRecord& r) {
  enc.put_ulonglong(r.time);
  enc.put_ulonglong(r.end);
  enc.put_ulong(r.node);
  enc.put_octet(static_cast<std::uint8_t>(r.stream));
  enc.put_octet(r.kind);
  enc.put_ulonglong(r.op.parent_epoch);
  enc.put_ulonglong(r.op.parent_seq);
  enc.put_ulonglong(r.op.op_seq);
  enc.put_ulonglong(r.trace_id);
  enc.put_ulonglong(r.span_id);
  enc.put_ulonglong(r.parent_span);
  enc.put_string(r.detail_str());
}

FlightRecord get_record(cdr::Decoder& dec) {
  FlightRecord r;
  r.time = dec.get_ulonglong();
  r.end = dec.get_ulonglong();
  r.node = dec.get_ulong();
  const std::uint8_t stream = dec.get_octet();
  if (stream > 1) throw cdr::MarshalError("bad flight-record stream");
  r.stream = static_cast<FlightRecord::Stream>(stream);
  r.kind = dec.get_octet();
  r.op.parent_epoch = dec.get_ulonglong();
  r.op.parent_seq = dec.get_ulonglong();
  r.op.op_seq = dec.get_ulonglong();
  r.trace_id = dec.get_ulonglong();
  r.span_id = dec.get_ulonglong();
  r.parent_span = dec.get_ulonglong();
  r.set_detail(dec.get_string());
  return r;
}

std::string sanitize_token(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if ((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9')) {
      out += ch;
    } else if (ch >= 'A' && ch <= 'Z') {
      out += static_cast<char>(ch - 'A' + 'a');
    } else {
      out += '_';
    }
  }
  return out.empty() ? std::string("fault") : out;
}
}  // namespace

std::string FlightRecord::detail_str() const {
  return std::string(detail,
                     std::find(detail, detail + kDetailCap, '\0'));
}

void FlightRecord::set_detail(const std::string& s) {
  const std::size_t n = std::min(s.size(), kDetailCap - 1);
  std::memcpy(detail, s.data(), n);
  std::memset(detail + n, 0, kDetailCap - n);
}

std::string FlightRecord::str() const {
  std::ostringstream os;
  os << '[' << time << "] node=" << node;
  if (stream == Stream::Span) {
    os << " span " << to_string(span_event()) << ' ' << op.str();
    if (trace_id != 0) {
      os << " trace=" << trace_id << " span=" << span_id;
      if (parent_span != 0) os << " parent=" << parent_span;
    }
  } else {
    os << " journal " << to_string(journal_kind());
  }
  const std::string d = detail_str();
  if (!d.empty()) os << ' ' << d;
  return os.str();
}

FlightRecorder::FlightRecorder(std::size_t per_node_capacity)
    : cap_(per_node_capacity ? per_node_capacity : 1) {}

void FlightRecorder::set_per_node_capacity(std::size_t capacity) {
  cap_ = capacity ? capacity : 1;
  clear();
}

void FlightRecorder::clear() {
  rings_.clear();
  absorbed_ = 0;
  fault_dumps_ = 0;
}

void FlightRecorder::absorb(const FlightRecord& r) {
  if (!enabled_) return;
  Ring& ring = rings_[r.node];
  if (ring.buf.size() < cap_) {
    ring.buf.push_back(r);
  } else {
    ring.buf[ring.next] = r;
    ring.next = (ring.next + 1) % cap_;
  }
  ++ring.total;
  ++absorbed_;
}

void FlightRecorder::absorb_span(const TraceRecord& r) {
  FlightRecord rec;
  rec.time = r.time;
  rec.end = r.end;
  rec.node = r.node;
  rec.stream = FlightRecord::Stream::Span;
  rec.kind = static_cast<std::uint8_t>(r.event);
  rec.op = r.op;
  rec.trace_id = r.trace_id;
  rec.span_id = r.span_id;
  rec.parent_span = r.parent_span;
  rec.set_detail(r.detail);
  absorb(rec);
}

void FlightRecorder::absorb_event(const JournalEvent& e) {
  FlightRecord rec;
  rec.time = e.time;
  rec.end = e.time;
  rec.node = e.node;
  rec.stream = FlightRecord::Stream::Journal;
  rec.kind = static_cast<std::uint8_t>(e.kind);
  rec.set_detail(e.detail.empty() ? e.subject : e.subject + " " + e.detail);
  absorb(rec);
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  std::uint64_t d = 0;
  for (const auto& [node, ring] : rings_) d += ring.total - ring.buf.size();
  return d;
}

std::vector<FlightRecord> FlightRecorder::ring_records(
    const Ring& ring) const {
  std::vector<FlightRecord> out;
  out.reserve(ring.buf.size());
  if (ring.buf.size() < cap_) {
    out = ring.buf;
  } else {
    // next points at the oldest record once the ring has wrapped.
    out.insert(out.end(),
               ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next),
               ring.buf.end());
    out.insert(out.end(), ring.buf.begin(),
               ring.buf.begin() + static_cast<std::ptrdiff_t>(ring.next));
  }
  return out;
}

std::vector<FlightRecord> FlightRecorder::records(std::uint32_t node) const {
  auto it = rings_.find(node);
  return it == rings_.end() ? std::vector<FlightRecord>{}
                            : ring_records(it->second);
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::vector<FlightRecord> out;
  for (const auto& [node, ring] : rings_) {
    const std::vector<FlightRecord> recs = ring_records(ring);
    out.insert(out.end(), recs.begin(), recs.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.node != b.node) return a.node < b.node;
                     return a.span_id < b.span_id;
                   });
  return out;
}

cdr::WireBuf FlightRecorder::encode() const {
  cdr::Writer enc;
  enc.put_ulong(kMagic);
  enc.put_ulong(kVersion);
  enc.put_ulong(static_cast<std::uint32_t>(rings_.size()));
  for (const auto& [node, ring] : rings_) {
    enc.put_ulong(node);
    enc.put_ulonglong(ring.total);
    const std::vector<FlightRecord> recs = ring_records(ring);
    enc.put_ulong(static_cast<std::uint32_t>(recs.size()));
    for (const FlightRecord& r : recs) put_record(enc, r);
  }
  return enc.seal();
}

std::vector<FlightRecord> FlightRecorder::decode(
    const std::vector<std::uint8_t>& bytes) {
  cdr::Decoder dec(bytes);
  if (dec.get_ulong() != kMagic) {
    throw cdr::MarshalError("not a flight-recorder dump (bad magic)");
  }
  if (dec.get_ulong() != kVersion) {
    throw cdr::MarshalError("unsupported flight-recorder dump version");
  }
  const std::uint32_t nodes = dec.get_ulong();
  if (nodes > 65536) throw cdr::MarshalError("implausible node count");
  std::vector<FlightRecord> out;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    (void)dec.get_ulong();      // node id (repeated in each record)
    (void)dec.get_ulonglong();  // total absorbed
    const std::uint32_t count = dec.get_ulong();
    if (count > (1u << 24)) {
      throw cdr::MarshalError("implausible record count");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      out.push_back(get_record(dec));
    }
  }
  return out;
}

bool FlightRecorder::dump(const std::string& path) const {
  const cdr::WireBuf bytes = encode();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::vector<FlightRecord> FlightRecorder::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open flight dump: " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  try {
    return decode(bytes);
  } catch (const cdr::MarshalError& e) {
    throw std::runtime_error("corrupt flight dump " + path + ": " + e.what());
  }
}

std::string FlightRecorder::dump_on_fault(const std::string& type,
                                          std::uint64_t when) {
  if (!armed()) return "";
  ++fault_dumps_;
  std::ostringstream name;
  name << dump_dir_ << "/flight-" << fault_dumps_ << '-'
       << sanitize_token(type) << "-t" << when << ".bin";
  const std::string path = name.str();
  return dump(path) ? path : "";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace eternal::obs
