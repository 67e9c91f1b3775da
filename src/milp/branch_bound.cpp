#include "milp/branch_bound.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "check/certify.hpp"
#include "milp/checkpoint.hpp"
#include "milp/fault.hpp"
#include "milp/presolve.hpp"
#include "obs/metrics.hpp"
#include "obs/node_log.hpp"
#include "obs/recorder.hpp"

namespace archex::milp {

namespace {

using Clock = std::chrono::steady_clock;

const double kNan = std::numeric_limits<double>::quiet_NaN();

/// Granularity of the objective: the largest g such that every objective
/// coefficient is an integer multiple of g, provided only *integral*
/// variables carry objective weight. Two integer-feasible objectives then
/// differ by at least g, so the bound-pruning cutoff can be tightened by
/// almost g. Returns 0 when no granularity can be exploited.
double objective_granularity(const Model& m) {
  double g = 0.0;
  for (const Term& t : m.objective().terms()) {
    const Variable& v = m.var(t.var);
    if (!v.is_integral()) return 0.0;
    double a = std::abs(t.coef);
    double b = g;
    // Euclid on reals with a snap tolerance.
    while (b > 1e-7) {
      const double r = std::fmod(a, b);
      a = b;
      b = (r < 1e-7 || b - r < 1e-7) ? 0.0 : r;
    }
    g = a;
    if (g < 1e-6) return 0.0;
  }
  return g;
}

/// Telemetry context for one run of the numerical-recovery ladder.
struct RecoverHooks {
  obs::MetricsRegistry* reg;  ///< never null inside solve_milp
  obs::Ring* ring;           ///< nullable
  std::int64_t node_id;
};

/// The first two rungs of the bounded numerical-recovery ladder, shared by
/// the root LP and the pool workers:
/// (1) tightened-tolerance refactorization + warm reoptimize, (2) cold
/// primal restart. Returns the first non-NumericalError status; callers
/// escalate further (quarantine/re-enqueue, then abandon) when both fail.
SolveStatus run_recovery_ladder(SimplexSolver& lp, const RecoverHooks& h) {
  h.reg->counter("milp.recover.tighten").add();
  if (h.ring != nullptr) {
    h.ring->emit(obs::EventType::Recover, h.node_id, 0.0,
                 static_cast<std::uint8_t>(obs::RecoverRung::Tighten));
  }
  SolveStatus st = SolveStatus::NumericalError;
  try {
    st = lp.recover_resolve();
  } catch (const std::bad_alloc&) {
    st = SolveStatus::NumericalError;
  }
  if (st != SolveStatus::NumericalError) return st;

  h.reg->counter("milp.recover.cold").add();
  if (h.ring != nullptr) {
    h.ring->emit(obs::EventType::Recover, h.node_id, 0.0,
                 static_cast<std::uint8_t>(obs::RecoverRung::Cold));
  }
  try {
    st = lp.solve_primal();
  } catch (const std::bad_alloc&) {
    st = SolveStatus::NumericalError;
  }
  return st;
}

// ---------------------------------------------------------------------------
// Tree search: an explicit open-node pool consumed by 1..N workers. It is
// the only tree engine: the first-incumbent probe dive is a one-worker pool
// search that stops at its first incumbent, and the tree phase runs
// `num_threads` workers over the same pool.
// ---------------------------------------------------------------------------

/// One bound tightening along the path from the (post-fixing) root. The
/// checkpoint layer serializes exactly this triple, so the pool's node paths
/// are the on-disk frontier representation too.
using BoundChange = BoundDelta;

/// An open branch & bound node: the bound deltas that define its subproblem,
/// the parent's LP objective (a valid lower bound for the whole subtree, used
/// for pre-solve pruning and best-bound stealing), and the parent's exported
/// simplex basis for dual warm starts. Both children of a branching share one
/// basis snapshot. The branching record (column, side, fractional distance)
/// turns the node's LP objective into a pseudocost observation.
struct BBNode {
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  double bound = -kInf;           ///< parent LP objective, minimize sense
  std::int32_t retries = 0;       ///< recovery-ladder quarantine count
  std::vector<BoundChange> path{};  ///< from the fixed root
  std::shared_ptr<const SimplexSolver::Basis> basis{};  ///< parent basis
  std::int32_t branch_col = -1;   ///< column branched on; -1 = root or resumed
  bool branch_up = false;         ///< the ceil side of that branching
  double branch_dist = 0.0;       ///< distance the branching moved the column
};

/// Lock-guarded open-node pool plus the search state one solve shares
/// between its root phase, probe dive and tree phase: the incumbent, the
/// pruning cutoff, the node budget and the degradation record.
///
/// Pop policy is the work-stealing compromise: a worker whose last solved
/// node is the parent of the deque's back continues its own dive (LIFO, keeps
/// the warm-start chain intact, no basis reinstall); otherwise it *steals*
/// the best-bound open node, paying one basis refactorization. The incumbent
/// objective is mirrored into an atomic so the pruning cutoff is readable
/// without the lock.
class NodePool {
 public:
  NodePool(const Model& model, const MilpOptions& opts, int num_workers)
      : model_(model), opts_(opts), granularity_(objective_granularity(model)),
        sense_flip_(model.objective_sense() == ObjectiveSense::Maximize ? -1.0 : 1.0),
        queues_(static_cast<std::size_t>(num_workers)),
        inflight_bound_(static_cast<std::size_t>(num_workers), kInf),
        inflight_node_(static_cast<std::size_t>(num_workers)) {
    for (std::size_t j = 0; j < model.num_vars(); ++j) {
      if (model.vars()[j].is_integral()) int_vars_.push_back(static_cast<std::int32_t>(j));
    }
  }

  /// Opens a search over an empty frontier, dropping whatever an earlier
  /// search left open (the probe dive's unexplored siblings). `charged`
  /// nodes already count against `max_nodes` and in node-log and checkpoint
  /// totals, and node ids continue past them (across a kill/resume too). A
  /// probe search stops at its first incumbent. Called while no worker runs.
  void start(bool probe, std::int64_t charged) {
    for (auto& q : queues_) q.clear();
    queued_ = 0;
    next_id_ = std::max(next_id_, static_cast<std::uint64_t>(charged));
    stop_.store(false, std::memory_order_relaxed);
    stop_reason_ = SolveStatus::Optimal;
    probe_ = probe;
    nodes_.store(0, std::memory_order_relaxed);
    base_nodes_ = charged;
    max_pool_nodes_ = opts_.max_nodes - charged;
  }

  /// Seeds the incumbent from a resumed checkpoint (not a new find, so
  /// `on_incumbent` does not fire).
  void seed_incumbent(double obj, std::vector<double> x) {
    incumbent_obj_.store(obj, std::memory_order_relaxed);
    incumbent_x_ = std::move(x);
    has_incumbent_ = obj < kInf;
  }

  /// Appends a node to `worker`'s own deque. Sleeping peers are only woken
  /// when someone is actually waiting, so an uncontested dive (push two
  /// children, immediately pop one back) stays wakeup-free.
  void push(int worker, std::shared_ptr<BBNode> node) {
    bool wake;
    {
      std::lock_guard<std::mutex> lk(mu_);
      node->id = ++next_id_;
      queues_[static_cast<std::size_t>(worker)].push_back(std::move(node));
      ++queued_;
      wake = waiters_ > 0;
    }
    if (wake) cv_.notify_one();
  }

  /// Blocks until a node is available, the tree is exhausted, or a stop was
  /// requested. Returns nullptr on termination. The caller's own deque is
  /// popped LIFO (continuing its dive); when it is empty, the front — oldest,
  /// closest to the root, so typically the best bound and the largest
  /// subtree — of the most promising peer deque is stolen instead. `stole`
  /// reports the victim worker id (-1 for an own-deque pop).
  std::shared_ptr<BBNode> pop(int worker, int& stole_from) {
    std::unique_lock<std::mutex> lk(mu_);
    ++waiters_;
    cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_relaxed) || queued_ > 0 || in_flight_ == 0;
    });
    --waiters_;
    if (stop_.load(std::memory_order_relaxed) || queued_ == 0) {
      lk.unlock();
      cv_.notify_all();  // release any peer still waiting
      return nullptr;
    }
    std::shared_ptr<BBNode> node;
    auto& own = queues_[static_cast<std::size_t>(worker)];
    if (!own.empty()) {
      stole_from = -1;
      node = std::move(own.back());
      own.pop_back();
    } else {
      std::size_t victim = queues_.size();
      for (std::size_t v = 0; v < queues_.size(); ++v) {
        if (queues_[v].empty()) continue;
        if (victim == queues_.size() ||
            queues_[v].front()->bound < queues_[victim].front()->bound) {
          victim = v;
        }
      }
      stole_from = static_cast<int>(victim);
      ++steals_;
      node = std::move(queues_[victim].front());
      queues_[victim].pop_front();
    }
    --queued_;
    ++in_flight_;
    inflight_bound_[static_cast<std::size_t>(worker)] = node->bound;
    // Keep the in-flight node reachable for checkpoint snapshots: a snapshot
    // taken mid-process must include it, or the subtree it roots would be
    // silently lost on resume.
    inflight_node_[static_cast<std::size_t>(worker)] = node;
    return node;
  }

  /// Marks the caller's current node finished; wakes waiters when the last
  /// in-flight node drains with empty deques (termination detection).
  void done(int worker) {
    bool finished;
    {
      std::lock_guard<std::mutex> lk(mu_);
      inflight_bound_[static_cast<std::size_t>(worker)] = kInf;
      inflight_node_[static_cast<std::size_t>(worker)].reset();
      --in_flight_;
      finished = queued_ == 0 && in_flight_ == 0;
    }
    if (finished) cv_.notify_all();
  }

  void request_stop(SolveStatus reason) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!stop_.load(std::memory_order_relaxed)) {
        stop_.store(true, std::memory_order_relaxed);
        stop_reason_ = reason;
      }
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  [[nodiscard]] SolveStatus stop_reason() const {
    return stop_reason_;  // read after join: workers are quiescent
  }
  /// True when the last search stopped on a limit (time, cancel, node
  /// budget, an LP limit) rather than on the probe's first incumbent.
  [[nodiscard]] bool limit_hit() const {
    return stopped() && stop_reason_ != SolveStatus::Optimal;
  }
  [[nodiscard]] bool probing() const { return probe_; }

  /// Current incumbent objective (minimize sense, kInf if none). Lock-free.
  [[nodiscard]] double incumbent() const {
    return incumbent_obj_.load(std::memory_order_relaxed);
  }

  /// Bound-pruning cutoff against the current incumbent (kInf if none).
  [[nodiscard]] double cutoff() const {
    const double inc = incumbent();
    if (inc >= kInf) return kInf;
    return inc - std::max({opts_.gap_abs, opts_.gap_rel * std::abs(inc),
                           granularity_ - 1e-6});
  }

  /// Integer-snap, validate against the true model, and install if better.
  /// Returns true when the incumbent improved (callers emit trace events).
  /// The root heuristic, a warm-start hint and every worker go through here.
  bool try_incumbent(std::vector<double> x, double obj) {
    for (std::int32_t j : int_vars_) {
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
    }
    if (!model_.feasible(x, 1e-5)) return false;
    std::lock_guard<std::mutex> lk(incumbent_mu_);
    if (obj < incumbent_obj_.load(std::memory_order_relaxed) - 1e-12) {
      incumbent_obj_.store(obj, std::memory_order_relaxed);
      incumbent_x_ = std::move(x);
      has_incumbent_ = true;
      if (opts_.on_incumbent) opts_.on_incumbent(sense_flip_ * obj);
      if (probe_) request_stop(SolveStatus::Optimal);  // the probe's goal
      return true;
    }
    return false;
  }

  /// True when every integral column of `x` is within `int_tol` of an integer.
  [[nodiscard]] bool integral(const std::vector<double>& x) const {
    return std::none_of(int_vars_.begin(), int_vars_.end(), [&](std::int32_t j) {
      return fractional(x[static_cast<std::size_t>(j)]);
    });
  }

  /// Pseudocost branching: the fractional column with the best product
  /// score max(ψ⁻·f, 1e-6) · max(ψ⁺·(1−f), 1e-6), where f is the column's
  /// fractional part and ψ∓ are the mean objective gains per unit of
  /// distance observed on its down/up children. A side with no observation
  /// yet borrows the mean over the columns observed on that side (1.0 before
  /// any), so a fresh search starts out most-fractional. Returns -1 when `x`
  /// is integral. One table serves the probe dive, the tree and every worker;
  /// it is allocated at the first branching. The lock covers only the
  /// fractional columns, plus one pass over the table when one of them has
  /// an unobserved side, so cheap-node trees do not serialize on it.
  [[nodiscard]] std::int32_t branch_var(const std::vector<double>& x) {
    std::vector<std::pair<std::int32_t, double>> frac;  // (column, f)
    for (std::int32_t j : int_vars_) {
      const double v = x[static_cast<std::size_t>(j)];
      if (fractional(v)) frac.emplace_back(j, v - std::floor(v));
    }
    if (frac.empty()) return -1;
    std::lock_guard<std::mutex> lk(pc_mu_);
    if (pc_.empty()) pc_.resize(model_.num_vars());
    const bool guessing = std::any_of(frac.begin(), frac.end(), [&](const auto& c) {
      const Pseudocost& p = pc_[static_cast<std::size_t>(c.first)];
      return p.n[0] == 0 || p.n[1] == 0;
    });
    double fallback[2] = {1.0, 1.0};
    for (int side = 0; guessing && side < 2; ++side) {
      double sum = 0.0;
      std::int64_t observed = 0;
      for (std::int32_t j : int_vars_) {
        const Pseudocost& p = pc_[static_cast<std::size_t>(j)];
        if (p.n[side] == 0) continue;
        sum += p.mean(side);
        ++observed;
      }
      if (observed > 0) fallback[side] = sum / static_cast<double>(observed);
    }
    std::int32_t best = -1;
    double best_score = -1.0;
    for (const auto& [j, f] : frac) {
      const Pseudocost& p = pc_[static_cast<std::size_t>(j)];
      const double down = p.n[0] > 0 ? p.mean(0) : fallback[0];
      const double up = p.n[1] > 0 ? p.mean(1) : fallback[1];
      const double score = std::max(down * f, 1e-6) * std::max(up * (1.0 - f), 1e-6);
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    const Pseudocost& chosen = pc_[static_cast<std::size_t>(best)];
    if (chosen.n[0] == 0 || chosen.n[1] == 0) ++pc_uninitialized_;
    return best;
  }

  /// Learns from a branched child whose LP solved to optimality: its bound
  /// gain over the parent per unit of distance moved.
  void record_pseudocost(const BBNode& child, double child_obj) {
    const double gain = (child_obj - child.bound) / child.branch_dist;
    std::lock_guard<std::mutex> lk(pc_mu_);
    Pseudocost& p = pc_[static_cast<std::size_t>(child.branch_col)];
    const int side = child.branch_up ? 1 : 0;
    p.sum[side] += gain;
    ++p.n[side];
    ++pc_updates_;
  }

  // Read after join (workers quiescent).
  [[nodiscard]] std::int64_t pseudocost_updates() const { return pc_updates_; }
  [[nodiscard]] std::int64_t pseudocost_uninitialized() const { return pc_uninitialized_; }

  /// Atomically counts one solved node against the global budget; returns
  /// false when the budget is already spent (caller requests NodeLimit).
  [[nodiscard]] bool count_node() {
    return nodes_.fetch_add(1, std::memory_order_relaxed) < max_pool_nodes_;
  }

  // Read while no worker runs.
  [[nodiscard]] bool has_incumbent() const { return has_incumbent_; }
  [[nodiscard]] std::vector<double>& incumbent_x() { return incumbent_x_; }

  [[nodiscard]] const Model& model() const { return model_; }
  [[nodiscard]] const MilpOptions& opts() const { return opts_; }
  [[nodiscard]] double sense_flip() const { return sense_flip_; }
  [[nodiscard]] double granularity() const { return granularity_; }
  [[nodiscard]] const std::vector<std::int32_t>& int_vars() const { return int_vars_; }

  /// Initial global lower bound (minimize sense), for Bound-event deltas.
  void set_root_bound(double b) { best_known_bound_ = b; }

  /// Records one subtree abandoned by the recovery ladder. The bound is
  /// folded into the final best bound by solve_milp.
  void mark_abandoned(double bound) {
    std::lock_guard<std::mutex> lk(mu_);
    ++degraded_nodes_;
    degraded_bound_ = std::min(degraded_bound_, bound);
  }
  /// Seeds the degradation record of a resumed checkpoint, so this run's
  /// snapshots and result carry it forward. Called before workers start.
  void seed_degraded(std::int64_t nodes, double bound) {
    degraded_nodes_ = nodes;
    degraded_bound_ = bound;
  }
  // Read after join (workers quiescent).
  [[nodiscard]] std::int64_t degraded_nodes() const { return degraded_nodes_; }
  [[nodiscard]] double degraded_bound() const { return degraded_bound_; }

  /// Arms periodic checkpointing (empty file = off).
  void configure_checkpoint(const std::string& file, double interval_s,
                            std::uint64_t fingerprint,
                            obs::MetricsRegistry* reg) {
    ck_file_ = file;
    ck_fingerprint_ = fingerprint;
    ck_reg_ = reg;
    ck_epoch_ = Clock::now();
    ck_interval_ns_ = interval_s <= 0.0
                          ? 0
                          : static_cast<std::int64_t>(interval_s * 1e9);
    ck_next_ns_.store(ck_interval_ns_, std::memory_order_relaxed);
  }

  /// Re-enqueues a node a worker popped but could not process (stop already
  /// requested, deadline, node budget, or its LP cut short by a time or
  /// iteration limit). Only meaningful under checkpointing:
  /// without it the node's subtree would be missing from the frontier the
  /// final checkpoint records, and a resume would silently lose it. No-op
  /// when checkpointing is off (the pool is torn down anyway).
  void keep_for_checkpoint(int worker, const BBNode& node) {
    if (ck_file_.empty()) return;
    auto copy = std::make_shared<BBNode>(node);
    std::lock_guard<std::mutex> lk(mu_);
    copy->id = ++next_id_;
    queues_[static_cast<std::size_t>(worker)].push_back(std::move(copy));
    ++queued_;
  }

  /// Writes a checkpoint when one is due. Called by workers between nodes;
  /// an atomic exchange elects a single writer, and the snapshot is taken
  /// under the pool lock but written outside it.
  void maybe_checkpoint(obs::Ring* ring) {
    if (ck_file_.empty()) return;
    const std::int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             ck_epoch_)
            .count();
    if (now_ns < ck_next_ns_.load(std::memory_order_relaxed)) return;
    if (ck_writing_.exchange(true, std::memory_order_acquire)) return;
    if (now_ns >= ck_next_ns_.load(std::memory_order_relaxed)) {
      write_checkpoint(ring);
      ck_next_ns_.store(now_ns + ck_interval_ns_, std::memory_order_relaxed);
    }
    ck_writing_.store(false, std::memory_order_release);
  }

  /// Unconditional checkpoint after the workers joined, so interrupted
  /// (node/time-limited) solves resume from their final frontier and
  /// completed solves leave an empty frontier that resumes trivially.
  void write_final_checkpoint(obs::Ring* ring) {
    if (ck_file_.empty()) return;
    write_checkpoint(ring);
  }

  /// Emits one node-log line from the pool's current state, and a Bound
  /// trace event when the global best-bound estimate improved. The estimate
  /// is min over open-node parent bounds and in-flight node bounds — an
  /// estimate, because a worker's in-flight LP may already have lifted its
  /// node's bound. Called by whichever worker finds the logger due; the
  /// pool lock makes the snapshot consistent.
  void log_line(obs::NodeLogger* logger, obs::Ring* ring) {
    obs::NodeLogger::Line line;
    double est = kInf;
    {
      std::lock_guard<std::mutex> lk(mu_);
      line.nodes = base_nodes_ + nodes_.load(std::memory_order_relaxed);
      line.open = queued_;
      line.steals = steals_;
      for (const auto& q : queues_) {
        if (!q.empty()) est = std::min(est, q.front()->bound);
      }
      for (double b : inflight_bound_) est = std::min(est, b);
      if (est < kInf && est > best_known_bound_ + 1e-9) {
        best_known_bound_ = est;
        if (ring != nullptr)
          ring->emit(obs::EventType::Bound, -1, sense_flip_ * est);
      }
      if (est >= kInf) est = best_known_bound_;
    }
    const double inc = incumbent();
    line.has_incumbent = inc < kInf;
    line.incumbent = sense_flip_ * inc;
    line.best_bound = sense_flip_ * est;
    if (logger != nullptr) logger->log(line);
  }

 private:
  [[nodiscard]] bool fractional(double v) const {
    return std::abs(v - std::round(v)) > opts_.int_tol;
  }

  /// Consistent copy of the resumable search state: frontier (queued plus
  /// in-flight nodes) under the pool lock, incumbent under its own lock.
  /// An in-flight node that already pushed its children may be captured
  /// together with them — the duplicated subtree costs re-exploration on
  /// resume but never correctness (same cutoffs, same incumbent checks).
  CheckpointData snapshot() {
    CheckpointData d;
    d.fingerprint = ck_fingerprint_;
    {
      std::lock_guard<std::mutex> lk(mu_);
      d.nodes = base_nodes_ + nodes_.load(std::memory_order_relaxed);
      d.root_bound = best_known_bound_;
      d.degraded_nodes = degraded_nodes_;
      d.degraded_bound = degraded_bound_;
      for (const auto& q : queues_) {
        for (const auto& n : q) d.frontier.push_back({n->bound, n->retries, n->path});
      }
      for (const auto& n : inflight_node_) {
        if (n) d.frontier.push_back({n->bound, n->retries, n->path});
      }
    }
    {
      std::lock_guard<std::mutex> lk(incumbent_mu_);
      d.has_incumbent = has_incumbent_;
      if (has_incumbent_) {
        d.incumbent_obj = incumbent_obj_.load(std::memory_order_relaxed);
        d.incumbent_x = incumbent_x_;
      }
    }
    return d;
  }

  void write_checkpoint(obs::Ring* ring) {
    const CheckpointData d = snapshot();
    const bool ok = save_checkpoint(ck_file_, d);
    if (ck_reg_ != nullptr) {
      ck_reg_->counter(ok ? "milp.checkpoint.writes"
                          : "milp.checkpoint.write_failures").add();
      ck_reg_->gauge("milp.checkpoint.frontier")
          .set(static_cast<double>(d.frontier.size()));
    }
    if (ring != nullptr) {
      ring->emit(obs::EventType::Checkpoint, -1,
                 static_cast<double>(d.frontier.size()));
    }
  }

  const Model& model_;
  const MilpOptions& opts_;
  const double granularity_;  ///< objective step size, see objective_granularity
  const double sense_flip_;
  std::vector<std::int32_t> int_vars_;  ///< columns with integrality

  /// Per-column pseudocost running means, side 0 = down, 1 = up.
  struct Pseudocost {
    double sum[2] = {0.0, 0.0};
    std::int64_t n[2] = {0, 0};
    [[nodiscard]] double mean(int side) const {
      return sum[side] / static_cast<double>(n[side]);
    }
  };
  /// Guards the table and its counters. Workers take it twice per node, so it
  /// and `mu_` get cache lines of their own: sharing one made the 4-worker
  /// knapsack bench (BM_MilpThreads/4) ~10% slower.
  alignas(64) std::mutex pc_mu_;
  std::vector<Pseudocost> pc_;  ///< by column; empty until the first branching
  std::int64_t pc_updates_ = 0;
  std::int64_t pc_uninitialized_ = 0;  ///< branchings on a column with an unobserved side

  alignas(64) std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<std::shared_ptr<BBNode>>> queues_;  ///< one per worker
  std::int64_t queued_ = 0;  ///< total nodes across all deques
  int in_flight_ = 0;
  int waiters_ = 0;
  std::uint64_t next_id_ = 1;  ///< id 1 is the root LP
  std::atomic<bool> stop_{false};
  SolveStatus stop_reason_ = SolveStatus::Optimal;
  bool probe_ = false;  ///< set by start() while no worker runs

  std::mutex incumbent_mu_;
  std::atomic<double> incumbent_obj_{kInf};
  std::vector<double> incumbent_x_;
  bool has_incumbent_ = false;

  std::atomic<std::int64_t> nodes_{0};
  std::int64_t max_pool_nodes_ = std::numeric_limits<std::int64_t>::max();

  // Telemetry (all under mu_ except base_nodes_, set by start()).
  std::vector<double> inflight_bound_;  ///< bound of each worker's node, kInf idle
  std::vector<std::shared_ptr<BBNode>> inflight_node_;  ///< under mu_; for snapshots
  std::int64_t steals_ = 0;
  std::int64_t base_nodes_ = 0;
  double best_known_bound_ = -kInf;

  // Recovery-ladder accounting (under mu_).
  std::int64_t degraded_nodes_ = 0;
  double degraded_bound_ = kInf;

  // Checkpointing (configured before workers start; due-time and the
  // single-writer election are atomics so workers race without the lock).
  std::string ck_file_;
  std::uint64_t ck_fingerprint_ = 0;
  obs::MetricsRegistry* ck_reg_ = nullptr;
  Clock::time_point ck_epoch_{};
  std::int64_t ck_interval_ns_ = 0;
  std::atomic<std::int64_t> ck_next_ns_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<bool> ck_writing_{false};
};

/// Telemetry hooks and limits shared by every worker of a solve.
struct SearchHooks {
  Clock::time_point deadline;
  obs::Recorder* recorder;    ///< null when recording is off
  obs::NodeLogger* logger;    ///< null when logging is off
  obs::MetricsRegistry* reg;  ///< never null
};

/// A pool worker: a SimplexSolver (worker 0 adopts the root solver, peers
/// own one), dive-local bookkeeping, and per-worker statistics.
class Worker {
 public:
  /// Each worker's SimplexSolver gets a private copy of the LP options with
  /// its *own* ring, keeping every ring single-writer.
  static SimplexOptions worker_lp_options(SimplexOptions lp, obs::Ring* ring) {
    lp.ring = ring;
    return lp;
  }

  /// `adopt` is the root solver, which worker 0 takes over as it stands:
  /// root bounds (reduced-cost fixes included) and whatever basis it holds.
  /// A peer (`adopt` null) builds a private solver and replays `root_fixes`
  /// so its "root" bounds match the pool's reference frame.
  Worker(int id, NodePool& pool, SimplexSolver* adopt,
         const std::vector<BoundChange>& root_fixes, const SearchHooks& hooks,
         obs::Ring* ring)
      : id_(id), opts_(pool.opts()), pool_(pool), deadline_(hooks.deadline),
        ring_(ring),
        logger_((hooks.logger != nullptr && hooks.logger->enabled()) ? hooks.logger
                                                                     : nullptr),
        reg_(hooks.reg),
        own_lp_(adopt != nullptr
                    ? nullptr
                    : std::make_unique<SimplexSolver>(
                          pool.model(), worker_lp_options(opts_.lp, ring))),
        lp_(adopt != nullptr ? *adopt : *own_lp_) {
    if (own_lp_) {
      for (const BoundChange& f : root_fixes) lp_.set_bounds(f.col, f.lb, f.ub);
    }
    for (std::size_t j = 0; j < pool.model().num_vars(); ++j) {
      root_lb_.push_back(lp_.lower_bound(static_cast<std::int32_t>(j)));
      root_ub_.push_back(lp_.upper_bound(static_cast<std::int32_t>(j)));
    }
  }

  /// CPU time consumed by the calling thread (waits in pop() don't count —
  /// the condition variable sleeps). Falls back to 0 where the POSIX
  /// per-thread clock is unavailable.
  static double thread_cpu_seconds() {
#ifdef CLOCK_THREAD_CPUTIME_ID
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
      return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    }
#endif
    return 0.0;
  }

  /// Processes nodes until the search drains or stops, or after `max_pops`
  /// nodes (worker 0 solves a search's first node before its peers start).
  void run(std::int64_t max_pops = std::numeric_limits<std::int64_t>::max()) {
    const double cpu0 = thread_cpu_seconds();
    int stole_from = -1;
    for (std::int64_t k = 0; k < max_pops; ++k) {
      std::shared_ptr<BBNode> node = pool_.pop(id_, stole_from);
      if (!node) break;
      if (stole_from >= 0) {
        ++steals_;
        if (ring_ != nullptr) {
          ring_->emit(obs::EventType::Steal, static_cast<std::int64_t>(node->id),
                      static_cast<double>(stole_from));
        }
      }
      process(*node);
      pool_.done(id_);
      pool_.maybe_checkpoint(ring_);
      if (logger_ != nullptr && logger_->due()) pool_.log_line(logger_, ring_);
    }
    busy_seconds_ += thread_cpu_seconds() - cpu0;
  }

  /// Rewinds the solver to the search's root bounds; the basis stays. This
  /// is how the probe dive hands the root solver back.
  void rewind() {
    for (const BoundChange& d : cur_path_) {
      lp_.set_bounds(d.col, root_lb_[static_cast<std::size_t>(d.col)],
                     root_ub_[static_cast<std::size_t>(d.col)]);
    }
    cur_path_.clear();
  }

  [[nodiscard]] std::int64_t nodes() const { return nodes_; }
  [[nodiscard]] std::int64_t steals() const { return steals_; }
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }
  [[nodiscard]] const SimplexSolver& lp() const { return lp_; }

 private:
  /// Installs `node`'s subproblem in the worker's solver. A dive continuation
  /// (the node's parent is the basis already held) applies only the newest
  /// bound delta; a stolen node rewinds to root bounds, replays the node's
  /// path, and transplants the parent basis.
  void rebase(const BBNode& node) {
    if (node.parent_id == held_id_ && node.path.size() == cur_path_.size() + 1) {
      const BoundChange& d = node.path.back();
      lp_.set_bounds(d.col, d.lb, d.ub);
      cur_path_.push_back(d);
    } else {
      rewind();
      cur_path_ = node.path;
      for (const BoundChange& d : cur_path_) lp_.set_bounds(d.col, d.lb, d.ub);
      if (node.basis) {
        lp_.load_basis(*node.basis);  // on failure reoptimize_dual cold-starts
      }
    }
    held_id_ = node.id;
  }

  void close(std::int64_t node_id, obs::NodeOutcome outcome, double bound) {
    if (ring_ != nullptr) {
      ring_->emit(obs::EventType::NodeClose, node_id, bound,
                  static_cast<std::uint8_t>(outcome));
    }
  }

  void process(const BBNode& node) {
    const auto nid = static_cast<std::int64_t>(node.id);
    const double flip = pool_.sense_flip();
    if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::WorkerStall)) {
      // Injected stall: models a worker losing its timeslice mid-search, so
      // tests can exercise steal/termination behaviour under skew.
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (ring_ != nullptr)
      ring_->emit(obs::EventType::NodeOpen, nid, flip * node.bound);
    if (pool_.stopped()) {
      pool_.keep_for_checkpoint(id_, node);
      close(nid, obs::NodeOutcome::Limit, kNan);
      return;
    }
    const double cut = pool_.cutoff();
    if (node.bound >= cut) {  // pruned by a newer incumbent, no LP
      close(nid, obs::NodeOutcome::Pruned, flip * node.bound);
      return;
    }
    if (Clock::now() >= deadline_ ||
        (opts_.cancel != nullptr &&
         opts_.cancel->load(std::memory_order_relaxed))) {
      // Expired budget and cooperative cancel stop identically: the node is
      // parked for the final checkpoint so a drain leaves a resumable file.
      pool_.request_stop(SolveStatus::TimeLimit);
      pool_.keep_for_checkpoint(id_, node);
      close(nid, obs::NodeOutcome::Limit, kNan);
      return;
    }
    if (!pool_.count_node()) {
      pool_.request_stop(SolveStatus::NodeLimit);
      pool_.keep_for_checkpoint(id_, node);
      close(nid, obs::NodeOutcome::Limit, kNan);
      return;
    }

    rebase(node);
    ++nodes_;
    SolveStatus st = SolveStatus::NumericalError;
    try {
      st = opts_.warm_start ? lp_.reoptimize_dual() : lp_.solve_primal();
      if (st == SolveStatus::Optimal && opts_.fault != nullptr &&
          opts_.fault->fire(FaultSite::BadAlloc)) {
        throw std::bad_alloc{};
      }
    } catch (const std::bad_alloc&) {
      st = SolveStatus::NumericalError;  // enter the ladder below
    }
    if (st == SolveStatus::NumericalError) {
      st = run_recovery_ladder(lp_, {reg_, ring_, nid});
    }
    if (st == SolveStatus::NumericalError) {
      // Both in-place rungs failed. Quarantine: re-enqueue the node for a
      // bounded number of fresh cold attempts (possibly on another worker's
      // solver, whose numerical state differs), then abandon the subtree —
      // its parent bound is folded into the global bound, never pruned away.
      if (node.retries < opts_.recover_max_retries) {
        auto retry = std::make_shared<BBNode>(node);
        retry->basis.reset();  // force a cold start on the next attempt
        retry->retries = node.retries + 1;
        if (reg_ != nullptr) reg_->counter("milp.recover.requeue").add();
        if (ring_ != nullptr) {
          ring_->emit(obs::EventType::Recover, nid, 0.0,
                      static_cast<std::uint8_t>(obs::RecoverRung::Requeue));
        }
        close(nid, obs::NodeOutcome::Requeued, flip * node.bound);
        pool_.push(id_, std::move(retry));
        return;
      }
      pool_.mark_abandoned(node.bound);
      if (reg_ != nullptr) reg_->counter("milp.recover.abandoned").add();
      if (ring_ != nullptr) {
        ring_->emit(obs::EventType::Recover, nid, 0.0,
                    static_cast<std::uint8_t>(obs::RecoverRung::Abandon));
      }
      close(nid, obs::NodeOutcome::Abandoned, flip * node.bound);
      return;
    }
    if (st == SolveStatus::Infeasible) {
      close(nid, obs::NodeOutcome::Infeasible, kNan);
      return;
    }
    if (st != SolveStatus::Optimal) {
      // Time/iteration limits surface here; Unbounded cannot, because bounds
      // only ever tighten below the (bounded) root relaxation. The node was
      // not branched, so (like the pre-LP deadline/budget exits above) it
      // must survive into the final checkpoint or its subtree would be
      // silently absent from a resumed search.
      pool_.request_stop(st);
      pool_.keep_for_checkpoint(id_, node);
      close(nid, obs::NodeOutcome::Limit, kNan);
      return;
    }

    const double obj = lp_.objective_value();
    if (node.branch_col >= 0) pool_.record_pseudocost(node, obj);
    if (obj >= pool_.cutoff()) {  // bound pruning
      close(nid, obs::NodeOutcome::Cutoff, flip * obj);
      return;
    }

    const std::vector<double> x = lp_.primal_solution();
    const std::int32_t bv = pool_.branch_var(x);
    if (bv < 0) {
      if (pool_.try_incumbent(x, obj) && ring_ != nullptr) {
        ring_->emit(obs::EventType::Incumbent, nid, flip * obj);
      }
      close(nid, obs::NodeOutcome::Integer, flip * obj);
      return;
    }
    close(nid, obs::NodeOutcome::Branched, flip * obj);

    const double v = x[static_cast<std::size_t>(bv)];
    const double lb0 = lp_.lower_bound(bv);
    const double ub0 = lp_.upper_bound(bv);
    const double down_ub = std::floor(v + opts_.int_tol);
    const double up_lb = std::ceil(v - opts_.int_tol);
    // Dive toward the nearest integer first; while probing for a first
    // incumbent, lean upward — architecture MILPs are covering-style, and
    // instantiating components reaches feasibility much faster than pruning
    // them.
    const double up_threshold = pool_.probing() ? 0.15 : 0.5;
    const double f = v - std::floor(v);
    const bool down_first = f < up_threshold;

    std::shared_ptr<const SimplexSolver::Basis> basis;
    if (opts_.warm_start) {
      basis = std::make_shared<const SimplexSolver::Basis>(lp_.export_basis());
    }
    auto make_child = [&](double clb, double cub, bool up) {
      auto child = std::make_shared<BBNode>();
      child->parent_id = node.id;
      child->bound = obj;
      child->path = cur_path_;
      child->path.push_back({bv, clb, cub});
      child->basis = basis;
      child->branch_col = bv;
      child->branch_up = up;
      child->branch_dist = up ? 1.0 - f : f;
      return child;
    };
    const bool down_ok = down_ub >= lb0 - 1e-12;
    const bool up_ok = up_lb <= ub0 + 1e-12;
    // Push the dive-preferred child last: the LIFO pop continues this
    // worker's dive with it, while the sibling is exposed for stealing.
    if (down_first) {
      if (up_ok) pool_.push(id_, make_child(up_lb, ub0, true));
      if (down_ok) pool_.push(id_, make_child(lb0, down_ub, false));
    } else {
      if (down_ok) pool_.push(id_, make_child(lb0, down_ub, false));
      if (up_ok) pool_.push(id_, make_child(up_lb, ub0, true));
    }
  }

  const int id_;
  const MilpOptions& opts_;
  NodePool& pool_;
  const Clock::time_point deadline_;
  obs::Ring* ring_;
  obs::NodeLogger* logger_;
  obs::MetricsRegistry* reg_;
  std::unique_ptr<SimplexSolver> own_lp_;  ///< null for worker 0
  SimplexSolver& lp_;
  std::vector<double> root_lb_, root_ub_;
  std::vector<BoundChange> cur_path_;
  std::uint64_t held_id_ = 0;  ///< node whose basis the solver holds
  std::int64_t nodes_ = 0;
  std::int64_t steals_ = 0;
  double busy_seconds_ = 0.0;
};

/// Runs one search over `pool`'s frontier with `threads` workers and returns
/// the nodes solved. Worker 0 runs on the calling thread and adopts the root
/// solver; it solves the first node alone, so peers (own threads, private
/// solvers) start by stealing children that carry its basis. On return the
/// root solver is back at the search's root bounds. Per-worker statistics
/// are folded into `sol` and the registry; the root solver's own counters
/// are left to solve_milp, which counts them once.
std::int64_t run_search(NodePool& pool, SimplexSolver& root_lp, int threads,
                        const SearchHooks& hooks, Solution& sol) {
  const Model& work = pool.model();
  // Peers replay the root's reduced-cost fixes: node paths are relative to
  // the fixed root.
  std::vector<BoundChange> root_fixes;
  for (std::size_t j = 0; threads > 1 && j < work.num_vars(); ++j) {
    const auto col = static_cast<std::int32_t>(j);
    const double lb = root_lp.lower_bound(col);
    const double ub = root_lp.upper_bound(col);
    if (lb != work.vars()[j].lb || ub != work.vars()[j].ub) {
      root_fixes.push_back({col, lb, ub});
    }
  }

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    // Each worker writes its own ring; worker 0 runs on the calling thread,
    // which owns ring 0.
    obs::Ring* ring = hooks.recorder != nullptr ? hooks.recorder->ring(t) : nullptr;
    workers.push_back(std::make_unique<Worker>(t, pool, t == 0 ? &root_lp : nullptr,
                                               root_fixes, hooks, ring));
  }
  workers[0]->run(1);
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(workers.size() - 1);
  for (std::size_t t = 1; t < workers.size(); ++t) {
    pool_threads.emplace_back([&w = *workers[t]] { w.run(); });
  }
  workers[0]->run();
  for (std::thread& th : pool_threads) th.join();
  workers[0]->rewind();

  std::int64_t nodes = 0;
  sol.threads_used = threads;
  sol.nodes_per_worker.resize(workers.size(), 0);
  for (std::size_t t = 0; t < workers.size(); ++t) {
    const Worker& w = *workers[t];
    nodes += w.nodes();
    sol.nodes_per_worker[t] += w.nodes();
    sol.steals += w.steals();
    sol.cpu_seconds += w.busy_seconds();
    if (t == 0) continue;  // worker 0's solver is the root solver
    const SimplexSolver::ReoptStats& rs = w.lp().reopt_stats();
    sol.simplex_iterations += w.lp().iterations();
    sol.warm_dual_nodes += rs.dual_fast;
    sol.warm_repair_nodes += rs.repaired;
    sol.cold_nodes += rs.cold;
    hooks.reg->counter("milp.refactors").add(rs.refactors);
    hooks.reg->counter("milp.basis_transplants").add(rs.transplants);
  }
  return nodes;
}

}  // namespace

Solution solve_milp(const Model& model, const MilpOptions& options) {
  const auto t0 = Clock::now();
  Solution sol;

  // --- telemetry setup (all optional; null/disabled hooks cost nothing) ---
  const int threads = std::max(options.num_threads, 1);
  obs::MetricsRegistry local_registry;
  obs::MetricsRegistry* reg = options.metrics != nullptr ? options.metrics
                                                         : &local_registry;
  // Recording: ring 0 is the calling thread's (solve start/end, phases, the
  // root solver and pool worker 0); peers' rings are armed here, before any
  // thread spawns.
  obs::Recorder* const recorder = options.recorder;
  if (recorder != nullptr) recorder->arm_workers(threads);
  obs::Ring* const root_ring = recorder != nullptr ? recorder->main() : nullptr;
  const bool started =
      root_ring != nullptr &&
      root_ring->open(obs::EventType::SolveStart, -1, static_cast<double>(threads), t0);
  // One region per phase: its two clock reads feed the `milp.phase.*` timer,
  // the Solution::phases mirror and the phase span.
  auto phase = [&](obs::SpanName name, const char* timer, double* mirror) {
    return obs::Region(root_ring, obs::span_id(name), &reg->timer(timer), mirror);
  };
  obs::NodeLogger logger(options.log_interval, options.log_sink, t0);
  // Final bookkeeping, shared by every return path. Expects `solve_seconds`
  // (and the threads==1 cpu_seconds mirror) to be set already — finish()
  // must not move the clock, callers pin cpu_seconds == solve_seconds.
  auto finish = [&](Solution& s) {
    s.term_reason = term_reason_from(s.status);
    reg->counter("milp.nodes").add(s.nodes_explored);
    reg->counter("milp.simplex_iterations").add(s.simplex_iterations);
    reg->counter("milp.steals").add(s.steals);
    reg->counter("milp.warm_dual").add(s.warm_dual_nodes);
    reg->counter("milp.warm_repair").add(s.warm_repair_nodes);
    reg->counter("milp.cold_restarts").add(s.cold_nodes);
    reg->gauge("milp.threads").set(static_cast<double>(s.threads_used));
    if (s.degraded_nodes > 0) {
      reg->gauge("milp.degraded_nodes")
          .set(static_cast<double>(s.degraded_nodes));
    }
    if (s.has_incumbent) {
      reg->gauge("milp.objective").set(s.objective);
      reg->gauge("milp.gap_abs").set(std::abs(s.objective - s.best_bound));
    }
    if (started) {
      root_ring->close(obs::EventType::SolveEnd, -1,
                       s.has_incumbent ? s.objective : kNan, Clock::now());
    }
    if (recorder != nullptr) {
      reg->counter("milp.records_dropped").add(recorder->take_dropped());
    }
    s.metrics = reg->snapshot();
  };

  // An absolute deadline that already passed (the arch layer arms one per
  // exploration, and a service request may sit in an admission queue past
  // its budget) returns before presolve touches the model: the caller gets
  // TimeLimit with zero nodes, not a presolve bill it can no longer afford.
  // The `time_limit_s <= 0` path is untouched — it still runs the root LP's
  // first poll so nodes_explored stays 1 as it always has.
  if (options.deadline != Clock::time_point::max() &&
      Clock::now() >= options.deadline) {
    sol.status = SolveStatus::TimeLimit;
    sol.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    if (threads == 1) sol.cpu_seconds = sol.solve_seconds;
    finish(sol);
    return sol;
  }

  // --- presolve ---
  PresolveResult pre;
  const Model* work = &model;
  if (options.use_presolve) {
    obs::Region presolve_region =
        phase(obs::SpanName::Presolve, "milp.phase.presolve", &sol.phases.presolve);
    pre = presolve(model);
    presolve_region.stop();
    // Caller-space row indices: `model` is the caller's model, so these feed
    // arch-level per-pattern attribution directly.
    sol.presolve_removed_rows = pre.removed_rows;
    reg->counter("milp.presolve.rows_removed").add(
        static_cast<std::int64_t>(pre.rows_removed));
    reg->counter("milp.presolve.vars_fixed").add(
        static_cast<std::int64_t>(pre.vars_fixed));
    reg->counter("milp.presolve.bounds_tightened").add(
        static_cast<std::int64_t>(pre.bounds_tightened));
    reg->counter("milp.presolve.strengthen_tightened").add(
        static_cast<std::int64_t>(pre.strengthen_tightened));
    reg->counter("milp.presolve.strengthen_fixed").add(
        static_cast<std::int64_t>(pre.strengthen_fixed));
    reg->counter("milp.presolve.rhs_strengthened").add(
        static_cast<std::int64_t>(pre.rhs_strengthened));
    if (pre.infeasible) {
      sol.status = SolveStatus::Infeasible;
      sol.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
      finish(sol);
      return sol;
    }
    work = &pre.reduced;
  }

  // --- checkpoint / resume ---
  const bool ck_enabled = !options.checkpoint_file.empty();
  std::uint64_t ck_fp = 0;
  CheckpointData ckdata;
  bool resume_ok = false;
  if (ck_enabled) {
    ck_fp = model_fingerprint(*work);
    if (options.resume) {
      CheckpointData loaded;
      bool ok = load_checkpoint(options.checkpoint_file, loaded);
      if (ok) ok = loaded.fingerprint == ck_fp;
      if (ok && loaded.has_incumbent) {
        // Distrust the file: the vector must fit the reduced model and
        // actually be feasible before it may prune this run's search.
        ok = loaded.incumbent_x.size() == work->num_vars() &&
             work->feasible(loaded.incumbent_x);
      }
      for (std::size_t i = 0; ok && i < loaded.frontier.size(); ++i) {
        for (const BoundDelta& d : loaded.frontier[i].path) {
          if (d.col < 0 ||
              static_cast<std::size_t>(d.col) >= work->num_vars()) {
            ok = false;
            break;
          }
        }
      }
      if (ok) {
        resume_ok = true;
        ckdata = std::move(loaded);
        reg->gauge("milp.checkpoint.loaded").set(1.0);
        reg->gauge("milp.checkpoint.frontier_loaded")
            .set(static_cast<double>(ckdata.frontier.size()));
      } else {
        // Missing, corrupt, or from a different model: start fresh.
        reg->gauge("milp.checkpoint.rejected").set(1.0);
      }
    }
  }

  // One conversion point for every relative budget (milp/budget.hpp): the
  // preferred `budget` knob and its deprecated `time_limit_s` alias both
  // become absolute deadlines measured from solve entry — the tighter wins.
  // Budget::deadline_from carries the historical clamp rules: <= 0 times out
  // immediately, NaN/+inf (and limits beyond the clock's ~centuries of
  // range) keep the "never" sentinel.
  Clock::time_point deadline =
      Budget::tighter(options.budget, Budget::of_seconds(options.time_limit_s))
          .deadline_from(t0);
  // An absolute caller deadline tightens (never relaxes) the derived one, so
  // the budget remains a per-call cap while `options.deadline` is the
  // end-to-end budget shared across encode/presolve/solve phases.
  deadline = std::min(deadline, options.deadline);
  MilpOptions node_options = options;
  node_options.lp.deadline = deadline;  // simplex loops honor the wall clock
  if (node_options.lp.cancel == nullptr) node_options.lp.cancel = options.cancel;
  if (recorder != nullptr) node_options.lp.ring = root_ring;  // worker 0's ring
  if (node_options.lp.fault == nullptr) node_options.lp.fault = options.fault;
  SimplexSolver root_lp(*work, node_options.lp);
  NodePool pool(*work, node_options, threads);
  const SearchHooks hooks{deadline, recorder, logger.enabled() ? &logger : nullptr,
                          reg};
  double root_bound = -kInf;  ///< root LP objective, minimize sense
  // Nodes solved by this search; a resumed one continues the checkpoint's
  // count, so `max_nodes` spans the kill/resume.
  std::int64_t nodes = resume_ok ? ckdata.nodes : 0;
  if (resume_ok) {
    // Carry the checkpointed degradation record: subtrees the interrupted
    // run abandoned stay folded into this run's bound (and Solution flags),
    // even if the tree phase never starts again.
    pool.seed_degraded(ckdata.degraded_nodes, ckdata.degraded_bound);
    if (ckdata.has_incumbent) {
      pool.seed_incumbent(ckdata.incumbent_obj, std::move(ckdata.incumbent_x));
    }
  }

  // Every incumbent improvement — root heuristic, probe dive, or pool worker
  // (serialized under the incumbent lock) — lands in the trajectory before
  // the user callback fires.
  node_options.on_incumbent = [&](double obj) {
    sol.incumbent_trajectory.push_back(
        {std::chrono::duration<double>(Clock::now() - t0).count(), obj,
         pool.sense_flip() * root_bound});
    reg->counter("milp.incumbents").add();
    if (options.on_incumbent) options.on_incumbent(obj);
  };

  // Cross-solve warm start (milp/warm_start.hpp). The hint only lines up
  // with the model the caller sees, so it is unusable under presolve (the
  // reduced column space differs per call) — gate, count, and drop it.
  const WarmStartHint* hint = options.warm_hint;
  if (hint != nullptr && options.use_presolve) {
    reg->counter("milp.warm_hint.skipped_presolve").add();
    hint = nullptr;
  }
  if (hint != nullptr && !hint->x.empty() && hint->x.size() == work->num_vars()) {
    // Seed the previous scenario's optimum through the ordinary incumbent
    // channel: try_incumbent snaps integers and re-validates feasibility, so
    // a vector the scenario delta made infeasible is simply rejected.
    double hint_obj = work->objective().constant();
    for (const Term& t : work->objective().terms()) {
      hint_obj += t.coef * hint->x[static_cast<std::size_t>(t.var.index)];
    }
    if (pool.try_incumbent(hint->x, pool.sense_flip() * hint_obj)) {
      reg->counter("milp.warm_hint.incumbent_seeded").add();
    }
  }

  // --- root solve ---
  obs::Region root_region =
      phase(obs::SpanName::RootLp, "milp.phase.root_lp", &sol.phases.root_lp);
  if (root_ring != nullptr)
    root_ring->emit(obs::EventType::NodeOpen, 1, kNan);
  // A hinted basis warm-starts the root with the dual simplex (bound/RHS
  // deltas preserve dual feasibility; objective deltas are repaired or fall
  // cold inside reoptimize_dual). A basis that no longer fits the model is
  // rejected by load_basis and the root solves cold — deterministically.
  bool warm_root = false;
  if (hint != nullptr && hint->basis != nullptr) {
    if (root_lp.load_basis(*hint->basis)) {
      warm_root = true;
      reg->counter("milp.warm_hint.basis_loaded").add();
    } else {
      reg->counter("milp.warm_hint.basis_rejected").add();
    }
  }
  SolveStatus st = warm_root ? root_lp.reoptimize_dual() : root_lp.solve_primal();
  if (warm_root && st == SolveStatus::NumericalError) {
    reg->counter("milp.warm_hint.cold_fallback").add();
    warm_root = false;
    st = root_lp.solve_primal();
  }
  sol.warm_started = warm_root;
  ++nodes;
  if (st == SolveStatus::NumericalError) {
    // The initial root solve gets the same first two ladder rungs as every
    // node LP; there is no parent bound to abandon into, so if both rungs
    // fail the error surfaces as the solve status below.
    st = run_recovery_ladder(root_lp, {reg, root_ring, 1});
  }
  root_region.stop();
  if (st == SolveStatus::Optimal) {
    root_bound = root_lp.objective_value();
    if (root_ring != nullptr) {
      root_ring->emit(obs::EventType::Bound, 1, pool.sense_flip() * root_bound);
    }
    reg->gauge("milp.root_bound").set(pool.sense_flip() * root_bound);
    if (options.export_basis) {
      // Snapshot *now*, before reduced-cost fixing or the probe dive mutate
      // bounds/basis: the root-optimal basis is the warm-start handle the
      // next scenario of a sweep loads (Solution::final_basis).
      sol.final_basis = std::make_shared<Basis>(root_lp.export_basis());
    }
    const std::vector<double> x = root_lp.primal_solution();

    // Root reduced-cost fixing (applied lazily once an incumbent exists):
    // a nonbasic integer column whose root reduced cost alone pushes the
    // root bound past the cutoff can be fixed at its root bound for the
    // whole search. Root data is captured *now*, before any probe dive
    // disturbs the basis.
    const std::vector<double> root_d = root_lp.reduced_costs();
    std::vector<SimplexSolver::BoundStatus> root_status(work->num_vars());
    for (std::size_t j = 0; j < work->num_vars(); ++j) {
      root_status[j] = root_lp.column_status(static_cast<std::int32_t>(j));
    }
    auto fix_by_reduced_cost = [&] {
      if (!pool.has_incumbent()) return;
      const double cutoff = pool.incumbent() -
                            std::max(options.gap_abs, pool.granularity() - 1e-6);
      for (std::int32_t j : pool.int_vars()) {
        const double lb = root_lp.lower_bound(j);
        const double ub = root_lp.upper_bound(j);
        if (ub - lb < 0.5) continue;  // already fixed
        // reduced_costs() reports model sense; the fixing math is in the
        // engine's minimize sense.
        const double dj = pool.sense_flip() * root_d[static_cast<std::size_t>(j)];
        if (root_status[static_cast<std::size_t>(j)] == SimplexSolver::BoundStatus::AtLower &&
            dj > 0 && root_bound + dj > cutoff + 1e-9) {
          root_lp.set_bounds(j, lb, lb);
        } else if (root_status[static_cast<std::size_t>(j)] ==
                       SimplexSolver::BoundStatus::AtUpper &&
                   dj < 0 && root_bound - dj > cutoff + 1e-9) {
          root_lp.set_bounds(j, ub, ub);
        }
      }
    };

    if (pool.integral(x)) {
      const bool improved = pool.try_incumbent(x, root_lp.objective_value());
      if (root_ring != nullptr) {
        if (improved) {
          root_ring->emit(obs::EventType::Incumbent, 1,
                          pool.sense_flip() * pool.incumbent());
        }
        root_ring->emit(obs::EventType::NodeClose, 1,
                        pool.sense_flip() * root_bound,
                        static_cast<std::uint8_t>(obs::NodeOutcome::Integer));
      }
    } else {
      if (root_ring != nullptr) {
        root_ring->emit(obs::EventType::NodeClose, 1,
                        pool.sense_flip() * root_bound,
                        static_cast<std::uint8_t>(obs::NodeOutcome::Branched));
      }
      {
        const obs::Region heur_region = phase(
            obs::SpanName::Heuristic, "milp.phase.heuristic", &sol.phases.heuristic);
        if (options.rounding_heuristic) {
          // Root rounding heuristic: snap and test.
          std::vector<double> xr = x;
          double obj = work->objective().constant();
          for (std::int32_t j : pool.int_vars()) {
            xr[static_cast<std::size_t>(j)] = std::round(xr[j]);
          }
          for (const Term& t : work->objective().terms()) {
            obj += t.coef * xr[static_cast<std::size_t>(t.var.index)];
          }
          const bool improved =
              pool.try_incumbent(std::move(xr), pool.sense_flip() * obj);  // minimize sense
          if (improved && root_ring != nullptr) {
            root_ring->emit(obs::EventType::Incumbent, -1,
                            pool.sense_flip() * pool.incumbent());
          }
        }
        if (!pool.has_incumbent()) {
          // Probe dive: a one-worker search that stops at its first
          // incumbent and hands the root solver back at root bounds, so
          // reduced-cost fixing can prune the full search below.
          pool.start(/*probe=*/true, nodes);
          pool.push(0, std::make_shared<BBNode>(BBNode{.bound = root_bound}));
          nodes += run_search(pool, root_lp, 1, hooks, sol);
        }
      }
      obs::Region tree_region =
          phase(obs::SpanName::Tree, "milp.phase.tree", &sol.phases.tree);
      fix_by_reduced_cost();
      if (!pool.limit_hit()) {
        pool.start(/*probe=*/false, nodes);
        if (ck_enabled) {
          pool.configure_checkpoint(options.checkpoint_file,
                                    options.checkpoint_interval_s, ck_fp, reg);
        }
        if (resume_ok) {
          // Re-enqueue the checkpointed frontier on worker 0 (steals
          // rebalance it). No basis snapshots survive serialization: each
          // resumed node warm-starts from whatever basis its worker holds.
          pool.set_root_bound(ckdata.root_bound);
          for (const CheckpointNode& cn : ckdata.frontier) {
            pool.push(0, std::make_shared<BBNode>(BBNode{
                             .bound = cn.bound, .retries = cn.retries, .path = cn.path}));
          }
        } else {
          // The fixed root is worker 0's first node: the root solver holds
          // its basis, so no snapshot is needed.
          pool.set_root_bound(root_bound);
          pool.push(0, std::make_shared<BBNode>(BBNode{.bound = root_bound}));
        }
        nodes += run_search(pool, root_lp, threads, hooks, sol);
        // Final snapshot after all workers drained: an interrupted run's
        // last checkpoint then carries the exact surviving frontier, and a
        // finished run's carries an empty one (resume returns the incumbent
        // immediately).
        pool.write_final_checkpoint(root_ring);
      }
      tree_region.stop();
    }
  } else if (st == SolveStatus::Infeasible) {
    sol.status = SolveStatus::Infeasible;
    if (root_ring != nullptr) {
      root_ring->emit(obs::EventType::NodeClose, 1, kNan,
                      static_cast<std::uint8_t>(obs::NodeOutcome::Infeasible));
    }
  } else if (st == SolveStatus::Unbounded) {
    sol.status = SolveStatus::Unbounded;
    if (root_ring != nullptr) {
      root_ring->emit(obs::EventType::NodeClose, 1, kNan,
                      static_cast<std::uint8_t>(obs::NodeOutcome::Limit));
    }
  } else {
    sol.status = st;
    if (root_ring != nullptr) {
      root_ring->emit(obs::EventType::NodeClose, 1, kNan,
                      static_cast<std::uint8_t>(obs::NodeOutcome::Limit));
    }
  }

  // run_search already accumulated the peers' contributions into `sol`; add
  // the root solver's (worker 0's) share on top.
  sol.simplex_iterations += root_lp.iterations();
  sol.nodes_explored = nodes;
  sol.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  sol.warm_dual_nodes += root_lp.reopt_stats().dual_fast;
  sol.warm_repair_nodes += root_lp.reopt_stats().repaired;
  sol.cold_nodes += root_lp.reopt_stats().cold;
  reg->counter("milp.refactors").add(root_lp.reopt_stats().refactors);
  reg->counter("milp.basis_transplants").add(root_lp.reopt_stats().transplants);
  reg->counter("milp.branch.pseudocost_updates").add(pool.pseudocost_updates());
  reg->counter("milp.branch.uninitialized").add(pool.pseudocost_uninitialized());
  if (sol.threads_used == 1) {
    sol.nodes_per_worker.assign(1, nodes);
    sol.cpu_seconds = sol.solve_seconds;
  }

  if (st == SolveStatus::Optimal) {
    obs::Region extract_region =
        phase(obs::SpanName::MilpExtract, "milp.phase.extract", &sol.phases.extract);
    // Abandoned subtrees (ladder exhausted) cap the proven bound at their
    // parents' bounds — the min below keeps the reported gap sound.
    const bool stopped = pool.limit_hit();
    sol.degraded_nodes = pool.degraded_nodes();
    sol.degraded = sol.degraded_nodes > 0;
    if (pool.has_incumbent()) {
      sol.status = stopped ? pool.stop_reason() : SolveStatus::Optimal;
      sol.has_incumbent = true;
      sol.objective = pool.sense_flip() * pool.incumbent();
      sol.best_bound =
          pool.sense_flip() *
          std::min(stopped ? root_bound : pool.incumbent(), pool.degraded_bound());
      std::vector<double> x = std::move(pool.incumbent_x());
      sol.x = options.use_presolve ? pre.postsolve(x) : std::move(x);
    } else {
      // Degraded and empty-handed: the abandoned subtrees may hide feasible
      // points, so "Infeasible" would be an unsound claim.
      sol.status = stopped ? pool.stop_reason()
                   : sol.degraded ? SolveStatus::NumericalError
                                  : SolveStatus::Infeasible;
      sol.best_bound =
          pool.sense_flip() * std::min(root_bound, pool.degraded_bound());
    }
    extract_region.stop();
  }

  // Independent certification of the answer we are about to return: primal
  // residuals against the original (pre-presolve) model always; dual
  // feasibility + complementary slackness when this was a pure LP solved
  // without presolve (row indices then match the engine's duals).
  if (options.certify && sol.has_incumbent) {
    check::CertifyOptions copts;
    copts.feas_tol = options.certify_tol;
    copts.int_tol = std::max(options.int_tol, options.certify_tol);
    copts.obj_tol = options.certify_tol;
    copts.dual_tol = options.certify_tol;
    check::Certificate cert;
    if (pool.int_vars().empty() && !options.use_presolve &&
        sol.status == SolveStatus::Optimal) {
      cert = check::certify_lp(model, sol.x, sol.objective, root_lp.dual_values(),
                               root_lp.reduced_costs(), copts);
    } else {
      cert = check::certify(model, sol.x, sol.objective, copts);
    }
    reg->gauge("check.certify.ok").set(cert.ok() ? 1.0 : 0.0);
    reg->gauge("check.certify.max_row_violation").set(cert.max_row_violation);
    reg->gauge("check.certify.max_bound_violation").set(cert.max_bound_violation);
    reg->gauge("check.certify.max_int_violation").set(cert.max_int_violation);
    reg->gauge("check.certify.objective_error").set(cert.objective_error);
    if (cert.duals_checked) {
      reg->gauge("check.certify.max_dual_violation").set(cert.max_dual_violation);
      reg->gauge("check.certify.max_slackness_violation")
          .set(cert.max_slackness_violation);
    }
  }
  if (logger.enabled()) {
    obs::NodeLogger::Line line;
    line.nodes = sol.nodes_explored;
    line.open = 0;
    line.has_incumbent = sol.has_incumbent;
    line.incumbent = sol.objective;
    line.best_bound = sol.best_bound;
    line.steals = sol.steals;
    logger.log_final(line);
  }
  finish(sol);
  return sol;
}

}  // namespace archex::milp
