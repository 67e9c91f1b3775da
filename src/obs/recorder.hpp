/// \file recorder.hpp
/// The one instrumentation stream of the stack: per-worker rings of typed
/// records — span begin, span end, and point events (node open/close,
/// bounds, incumbents, steals, basis events, checkpoints, solve start/end) —
/// owned by one Recorder with one epoch, one interned name table, and one
/// overflow policy.
///
/// Each ring is written by exactly one thread (no locks, no atomics on the
/// hot path) and read only after the writers joined. A full ring drops the
/// *newest* records and counts them: the records already written stay, so
/// the single `solve_start` survives and span nesting stays well formed (an
/// accepted span begin holds room for its end).
///
/// `Region` times a block once — one clock read at entry, one at exit — and
/// feeds every consumer from those two reads: a metrics `Timer`, an optional
/// `double` mirror (`Solution::phases`, `ExplorationResult::*_seconds`), and
/// the ring as a span. With all three null it is one pointer test at each
/// end and reads no clock.
///
/// Exporters over the stream (schemas in docs/observability.md):
///   * `Trace::write_jsonl` — the JSONL event log (`milp_solve --trace-json`);
///   * `Recorder::write_chrome_trace` — Chrome trace-event JSON
///     (`--profile-json`), loadable in Perfetto;
///   * `Recorder::spans` — matched spans with nesting depth.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace archex::obs {

using Clock = std::chrono::steady_clock;

/// Record kind. Point-event names are part of the JSONL schema.
enum class EventType : std::uint8_t {
  SolveStart,   ///< solve entry; value = number of workers
  NodeOpen,     ///< node dequeued for processing; value = parent bound
  NodeClose,    ///< node finished; detail = NodeOutcome, value = node bound
  Bound,        ///< global best-bound improvement; value = new bound
  Incumbent,    ///< incumbent improvement; value = new objective
  Steal,        ///< node stolen; id = node id, value = victim worker id
  DualRepair,   ///< dual reoptimization fell back to primal repair
  ColdRestart,  ///< dual reoptimization fell back to a cold solve
  Recover,      ///< numerical-recovery ladder step; detail = RecoverRung
  Checkpoint,   ///< search state checkpointed; value = open-node count
  SolveEnd,     ///< solve exit; value = final objective (or NaN)
  SpanBegin,    ///< a Region opened; id = name id
  SpanEnd,      ///< the matching Region closed; id = name id
};

/// NodeClose detail: how the node was disposed of.
enum class NodeOutcome : std::uint8_t {
  Branched = 0,    ///< fractional, two children created
  Integer = 1,     ///< LP solution integral (incumbent candidate)
  Infeasible = 2,  ///< node LP infeasible
  Pruned = 3,      ///< parent bound already past the cutoff (pre-LP)
  Cutoff = 4,      ///< node bound past the cutoff (post-LP)
  Limit = 5,       ///< abandoned by a node/time limit
  Requeued = 6,    ///< quarantined after a numerical failure, re-enqueued
  Abandoned = 7,   ///< recovery ladder exhausted; parent bound inherited
};

/// Recover detail: which rung of the numerical-recovery ladder ran.
enum class RecoverRung : std::uint8_t {
  Tighten = 0,  ///< tightened-tolerance refactorization + warm reoptimize
  Cold = 1,     ///< cold primal restart
  Requeue = 2,  ///< node quarantined for a bounded cold retry
  Abandon = 3,  ///< retries exhausted; bound conservatively inherited
};

/// Fixed region names, pre-interned by every Recorder in this order so the
/// enum value *is* the name id. The five `solve_milp` phases export to JSONL
/// as `phase` events and `Refactor` as `refactor` events.
enum class SpanName : std::int32_t {
  // Architecture pipeline (arch::Problem).
  Encode = 0,   ///< structural constraints (Problem constructor)
  Formulate,    ///< objective assembly
  Solve,        ///< the whole MILP solve (arch layer view)
  Extract,      ///< solution -> Architecture decode
  // Branch & bound phases (milp::solve_milp).
  Presolve,
  RootLp,
  Heuristic,
  Tree,
  MilpExtract,  ///< postsolve + incumbent extraction
  // Simplex / LU kernel hot paths (sampled every Nth pivot).
  Ftran,
  BtranRow,
  PriceRow,
  Price,        ///< full pricing pass
  Refactor,     ///< basis refactorization (always recorded)
  kCount,       ///< sentinel, not a name
};

[[nodiscard]] const char* to_string(EventType t);
[[nodiscard]] const char* to_string(NodeOutcome o);
[[nodiscard]] const char* to_string(RecoverRung r);
[[nodiscard]] const char* to_string(SpanName n);
[[nodiscard]] constexpr std::int32_t span_id(SpanName n) {
  return static_cast<std::int32_t>(n);
}

/// One record. 32 bytes, appended by value.
struct Record {
  std::int64_t ns = 0;      ///< nanoseconds since the recorder epoch
  double value = 0.0;       ///< point-event payload (see EventType)
  std::int64_t id = -1;     ///< node id, or the name id of a span record
  std::int32_t worker = 0;
  EventType type = EventType::SolveStart;
  std::uint8_t detail = 0;  ///< NodeOutcome / RecoverRung discriminant
};

/// Bounded single-writer record sink for one worker thread. Storage is
/// reserved once, at construction; appends never allocate.
class Ring {
 public:
  Ring(std::int32_t worker, std::size_t capacity, Clock::time_point epoch);

  /// Point events and spans refused because the ring was full.
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Appends a point event stamped now, or drops it (no clock read) when it
  /// does not fit beside the room held for open spans' ends.
  void emit(EventType type, std::int64_t id = -1, double value = 0.0,
            std::uint8_t detail = 0) {
    if (!fits(1)) return;
    records_.push_back({ns_at(Clock::now()), value, id, worker_, type, detail});
  }

  /// Appends an opening record (SpanBegin, SolveStart) and holds room for its
  /// closing record; false (counted as one drop) when both do not fit.
  bool open(EventType type, std::int64_t id, double value, Clock::time_point t) {
    if (!fits(2)) return false;
    ++held_;
    records_.push_back({ns_at(t), value, id, worker_, type, 0});
    return true;
  }

  /// Appends the closing record of an accepted open(); always fits.
  void close(EventType type, std::int64_t id, double value, Clock::time_point t) {
    --held_;
    records_.push_back({ns_at(t), value, id, worker_, type, 0});
  }

 private:
  [[nodiscard]] std::int64_t ns_at(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  bool fits(std::size_t n) {
    if (records_.size() + held_ + n <= capacity_) return true;
    ++dropped_;
    return false;
  }

  std::vector<Record> records_;
  std::size_t capacity_;
  std::size_t held_ = 0;  ///< slots held for the ends of open spans
  std::int64_t dropped_ = 0;
  std::int32_t worker_;
  Clock::time_point epoch_;
};

/// Scoped region timed once. Either of the sinks may be null; a span is
/// recorded only when the ring accepted the begin.
class Region {
 public:
  Region(Ring* ring, std::int32_t name, Timer* timer = nullptr,
         double* mirror = nullptr)
      : ring_(ring), timer_(timer), mirror_(mirror), name_(name) {
    if (ring_ == nullptr && timer_ == nullptr && mirror_ == nullptr) return;
    t0_ = Clock::now();
    if (ring_ != nullptr && !ring_->open(EventType::SpanBegin, name_, 0.0, t0_)) {
      ring_ = nullptr;
    }
  }
  /// A timed region with no span (metrics timer and/or mirror only).
  explicit Region(Timer* timer, double* mirror = nullptr)
      : Region(nullptr, 0, timer, mirror) {}
  ~Region() { stop(); }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  /// Closes the region early; destruction then records nothing further.
  void stop() {
    if (ring_ == nullptr && timer_ == nullptr && mirror_ == nullptr) return;
    const Clock::time_point t1 = Clock::now();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0_).count();
    if (timer_ != nullptr) timer_->record(ns);
    if (mirror_ != nullptr) *mirror_ = static_cast<double>(ns) * 1e-9;
    if (ring_ != nullptr) ring_->close(EventType::SpanEnd, name_, 0.0, t1);
    ring_ = nullptr;
    timer_ = nullptr;
    mirror_ = nullptr;
  }

 private:
  Ring* ring_;
  Timer* timer_;
  double* mirror_;
  std::int32_t name_;
  Clock::time_point t0_{};
};

/// Every ring's records merged into one time-sorted log.
struct Trace {
  std::vector<Record> records;
  std::int64_t dropped = 0;  ///< drops across all rings

  [[nodiscard]] bool empty() const { return records.empty(); }
  [[nodiscard]] std::size_t count(EventType t) const;
  [[nodiscard]] int num_workers() const;

  /// One JSON object per line (schema in docs/observability.md); span
  /// records export only as `phase` and `refactor` events. Returns the
  /// number of lines written.
  std::size_t write_jsonl(std::ostream& os) const;
};

/// Owns the per-worker rings and the interned name table. Ring 0 belongs to
/// the calling (main) thread — the encoder, the root phase and pool worker 0
/// all run on it. arm_workers() must be called before the threads that write
/// the new rings spawn (solve_milp does); ring pointers are stable
/// thereafter. One solve at a time may write a recorder; it may span several
/// sequential solves (the lazy loop), which append to the same rings.
class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit Recorder(std::size_t capacity_per_worker = kDefaultCapacity);

  /// Interns a dynamic name (per-pattern spans). Mutex-guarded; call at
  /// encode time, never from a pivot loop. Idempotent per name.
  std::int32_t intern(std::string_view name);
  /// Name of an interned id ("?" for an unknown id).
  [[nodiscard]] const std::string& name_of(std::int32_t id) const;

  /// Ensures rings exist for workers [0, n).
  void arm_workers(int n);
  /// Worker w's ring, or null when never armed.
  [[nodiscard]] Ring* ring(int worker);
  /// The main-thread ring (worker 0).
  [[nodiscard]] Ring* main() { return ring(0); }
  [[nodiscard]] int num_workers() const;

  /// Drops across all rings since construction.
  [[nodiscard]] std::int64_t dropped() const;
  /// Drops since the previous take_dropped() call: solve_milp feeds this
  /// delta into the per-solve `milp.records_dropped` counter, so a recorder
  /// reused across solves does not double-report.
  std::int64_t take_dropped();

  /// Merged snapshot of every ring (the rings are not reset).
  [[nodiscard]] Trace trace() const;

  /// A matched begin/end pair. Begins whose end was never recorded (region
  /// still open) are left out.
  struct Span {
    std::int64_t ns0 = 0;
    std::int64_t ns1 = 0;
    std::int32_t name = 0;
    std::int32_t worker = 0;
    std::int32_t depth = 0;  ///< nesting depth at open time (0 = top level)
  };
  /// Every span, sorted by (start, depth, worker): a parent precedes its
  /// children and concurrent workers interleave in start order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Chrome trace-event JSON: one `ph:"X"` event per span (ts/dur in
  /// microseconds, pid 1, tid = worker) plus `ph:"M"` lane names.
  void write_chrome_trace(std::ostream& os) const;

 private:
  mutable std::mutex mu_;  ///< guards names_ and rings_ growth
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Ring>> rings_;  ///< stable pointers
  std::size_t capacity_;
  std::int64_t reported_dropped_ = 0;
  Clock::time_point epoch_;
};

}  // namespace archex::obs
