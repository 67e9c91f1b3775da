#include "obs/recorder.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace archex::obs {

const char* to_string(EventType t) {
  switch (t) {
    case EventType::SolveStart: return "solve_start";
    case EventType::NodeOpen: return "node_open";
    case EventType::NodeClose: return "node_close";
    case EventType::Bound: return "bound";
    case EventType::Incumbent: return "incumbent";
    case EventType::Steal: return "steal";
    case EventType::DualRepair: return "dual_repair";
    case EventType::ColdRestart: return "cold_restart";
    case EventType::Recover: return "recover";
    case EventType::Checkpoint: return "checkpoint";
    case EventType::SolveEnd: return "solve_end";
    case EventType::SpanBegin: return "span_begin";
    case EventType::SpanEnd: return "span_end";
  }
  return "unknown";
}

const char* to_string(NodeOutcome o) {
  switch (o) {
    case NodeOutcome::Branched: return "branched";
    case NodeOutcome::Integer: return "integer";
    case NodeOutcome::Infeasible: return "infeasible";
    case NodeOutcome::Pruned: return "pruned";
    case NodeOutcome::Cutoff: return "cutoff";
    case NodeOutcome::Limit: return "limit";
    case NodeOutcome::Requeued: return "requeued";
    case NodeOutcome::Abandoned: return "abandoned";
  }
  return "unknown";
}

const char* to_string(RecoverRung r) {
  switch (r) {
    case RecoverRung::Tighten: return "tighten";
    case RecoverRung::Cold: return "cold";
    case RecoverRung::Requeue: return "requeue";
    case RecoverRung::Abandon: return "abandon";
  }
  return "unknown";
}

const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::Encode: return "encode";
    case SpanName::Formulate: return "formulate";
    case SpanName::Compile: return "compile";
    case SpanName::Solve: return "solve";
    case SpanName::Extract: return "extract";
    case SpanName::Presolve: return "presolve";
    case SpanName::RootLp: return "root_lp";
    case SpanName::Heuristic: return "heuristic";
    case SpanName::Tree: return "tree";
    case SpanName::MilpExtract: return "milp_extract";
    case SpanName::Ftran: return "ftran";
    case SpanName::BtranRow: return "btran_row";
    case SpanName::PriceRow: return "price_row";
    case SpanName::Price: return "price";
    case SpanName::Refactor: return "refactor";
    case SpanName::kCount: break;
  }
  return "?";
}

Ring::Ring(std::int32_t worker, std::size_t capacity, Clock::time_point epoch)
    : capacity_(capacity), worker_(worker), epoch_(epoch) {
  records_.reserve(capacity);
}

namespace {

/// JSONL `phase` value of a solve_milp phase span, or null for other names.
const char* jsonl_phase(std::int64_t name) {
  switch (static_cast<SpanName>(name)) {
    case SpanName::Presolve: return "presolve";
    case SpanName::RootLp: return "root_lp";
    case SpanName::Heuristic: return "heuristic";
    case SpanName::Tree: return "tree";
    case SpanName::MilpExtract: return "extract";
    default: return nullptr;
  }
}

void write_num(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
  } else {
    os << "null";
  }
}

void write_us(std::ostream& os, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(ns) * 1e-3);
  os << buf;
}

// Interned names are pattern describe() strings and the fixed table, but
// keep the writer honest for quotes/backslashes/control bytes anyway.
void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

std::size_t Trace::count(EventType t) const {
  return static_cast<std::size_t>(std::count_if(
      records.begin(), records.end(), [t](const Record& r) { return r.type == t; }));
}

int Trace::num_workers() const {
  int max_worker = -1;
  for (const Record& r : records) max_worker = std::max(max_worker, r.worker);
  return max_worker + 1;
}

std::size_t Trace::write_jsonl(std::ostream& os) const {
  std::size_t lines = 0;
  for (const Record& e : records) {
    const char* type = to_string(e.type);
    const char* phase = nullptr;
    if (e.type == EventType::SpanEnd) continue;
    if (e.type == EventType::SpanBegin) {
      phase = jsonl_phase(e.id);
      if (phase != nullptr) {
        type = "phase";
      } else if (e.id == span_id(SpanName::Refactor)) {
        type = "refactor";
      } else {
        continue;
      }
    }
    ++lines;
    os << "{\"t\":";
    write_num(os, static_cast<double>(e.ns) * 1e-9);
    os << ",\"type\":\"" << type << "\",\"worker\":" << e.worker;
    switch (e.type) {
      case EventType::SolveStart:
        os << ",\"workers\":" << static_cast<int>(e.value);
        break;
      case EventType::SpanBegin:
        if (phase != nullptr) os << ",\"phase\":\"" << phase << '"';
        break;
      case EventType::NodeOpen:
        os << ",\"node\":" << e.id << ",\"parent_bound\":";
        write_num(os, e.value);
        break;
      case EventType::NodeClose:
        os << ",\"node\":" << e.id << ",\"outcome\":\""
           << to_string(static_cast<NodeOutcome>(e.detail)) << "\",\"bound\":";
        write_num(os, e.value);
        break;
      case EventType::Bound:
        os << ",\"bound\":";
        write_num(os, e.value);
        break;
      case EventType::Incumbent:
        os << ",\"node\":" << e.id << ",\"objective\":";
        write_num(os, e.value);
        break;
      case EventType::Steal:
        os << ",\"node\":" << e.id << ",\"victim\":" << static_cast<int>(e.value);
        break;
      case EventType::Recover:
        os << ",\"node\":" << e.id << ",\"rung\":\""
           << to_string(static_cast<RecoverRung>(e.detail)) << '"';
        break;
      case EventType::Checkpoint:
        os << ",\"open\":" << static_cast<long long>(e.value);
        break;
      case EventType::SolveEnd:
        os << ",\"objective\":";
        write_num(os, e.value);
        break;
      case EventType::DualRepair:
      case EventType::ColdRestart:
      case EventType::SpanEnd:
        break;
    }
    os << "}\n";
  }
  return lines;
}

Recorder::Recorder(std::size_t capacity_per_worker)
    : capacity_(capacity_per_worker), epoch_(Clock::now()) {
  for (std::int32_t i = 0; i < span_id(SpanName::kCount); ++i) {
    names_.emplace_back(to_string(static_cast<SpanName>(i)));
  }
  arm_workers(1);  // ring 0: the calling thread
}

std::int32_t Recorder::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::int32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::int32_t>(names_.size() - 1);
}

const std::string& Recorder::name_of(std::int32_t id) const {
  static const std::string unknown = "?";
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || static_cast<std::size_t>(id) >= names_.size()) return unknown;
  return names_[static_cast<std::size_t>(id)];
}

void Recorder::arm_workers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (rings_.size() < static_cast<std::size_t>(n)) {
    rings_.push_back(std::make_unique<Ring>(static_cast<std::int32_t>(rings_.size()),
                                            capacity_, epoch_));
  }
}

Ring* Recorder::ring(int worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (worker < 0 || static_cast<std::size_t>(worker) >= rings_.size()) return nullptr;
  return rings_[static_cast<std::size_t>(worker)].get();
}

int Recorder::num_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(rings_.size());
}

std::int64_t Recorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& r : rings_) total += r->dropped();
  return total;
}

std::int64_t Recorder::take_dropped() {
  const std::int64_t total = dropped();
  const std::int64_t delta = total - reported_dropped_;
  reported_dropped_ = total;
  return delta;
}

Trace Recorder::trace() const {
  Trace trace;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& r : rings_) {
      trace.dropped += r->dropped();
      trace.records.insert(trace.records.end(), r->records().begin(),
                           r->records().end());
    }
  }
  // Each ring is already in time order; the stable sort keeps a ring's
  // equal-time records (a span end and the next begin) in write order.
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const Record& a, const Record& b) { return a.ns < b.ns; });
  return trace;
}

std::vector<Recorder::Span> Recorder::spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<const Record*> open;
    for (const auto& r : rings_) {
      open.clear();
      for (const Record& rec : r->records()) {
        if (rec.type == EventType::SpanBegin) {
          open.push_back(&rec);
        } else if (rec.type == EventType::SpanEnd && !open.empty()) {
          const Record& b = *open.back();
          open.pop_back();
          out.push_back({b.ns, rec.ns, static_cast<std::int32_t>(b.id), b.worker,
                         static_cast<std::int32_t>(open.size())});
        }
      }
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.ns0 != b.ns0) return a.ns0 < b.ns0;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.worker < b.worker;
  });
  return out;
}

void Recorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << "{\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"archex\"}}";
  const int workers = num_workers();
  for (int w = 0; w < workers; ++w) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << w
       << ",\"args\":{\"name\":\"worker " << w << "\"}}";
  }
  for (const Span& s : all) {
    os << ",\n{\"name\":\"";
    write_escaped(os, name_of(s.name));
    os << "\",\"cat\":\"archex\",\"ph\":\"X\",\"ts\":";
    write_us(os, s.ns0);
    os << ",\"dur\":";
    write_us(os, s.ns1 - s.ns0);
    os << ",\"pid\":1,\"tid\":" << s.worker << ",\"args\":{\"depth\":" << s.depth
       << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans_dropped\":"
     << dropped() << "}}\n";
}

}  // namespace archex::obs
