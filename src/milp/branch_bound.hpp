/// \file branch_bound.hpp
/// Branch & bound MILP solver on top of the bounded-variable simplex.
///
/// One tree engine: an open-node pool consumed by `num_threads` workers, each
/// diving depth-first with warm-started dual-simplex node solves. Branching
/// only changes variable bounds, which preserves dual feasibility of the
/// parent basis, so each node typically reoptimizes in a handful of pivots.
/// The branching column is chosen by pseudocosts learned from every solved
/// node LP and shared by all workers. A root rounding heuristic seeds the
/// incumbent; failing that, a probe dive (the same pool, stopped at its
/// first incumbent) finds one. This is the "Solver" box of Figure 1 in the
/// paper (the role CPLEX plays for the original toolbox).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "milp/budget.hpp"
#include "milp/model.hpp"
#include "milp/simplex.hpp"
#include "milp/warm_start.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace archex::milp {

/// Branch & bound configuration.
struct MilpOptions {
  double int_tol = 1e-6;          ///< integrality tolerance
  double gap_abs = 1e-9;          ///< absolute optimality gap
  double gap_rel = 1e-9;          ///< relative optimality gap
  std::int64_t max_nodes = 10'000'000;
  /// The preferred time-budget knob (milp/budget.hpp): one relative
  /// wall-clock allowance, measured from `solve_milp` entry and converted to
  /// an absolute deadline at exactly one point. Combined (min) with the
  /// deprecated `time_limit_s` alias and the absolute `deadline` below.
  Budget budget = Budget::unlimited();
  /// Deprecated alias of `budget` (wall-clock limit in seconds); kept so
  /// existing call sites compile unchanged. Values ≤ 0 time out immediately;
  /// only +inf (or a limit beyond the clock's ~centuries of range) disables
  /// it. New code should set `budget` instead.
  double time_limit_s = 1e18;
  /// Absolute monotonic deadline, combined (min) with the deadline derived
  /// from `time_limit_s`. Unlike a per-call time limit, an absolute deadline
  /// is shared end-to-end across phases and re-solves: the arch layer arms
  /// it once per exploration so encode-heavy or lazy-iterating models cannot
  /// restart the budget at every `solve_milp` call. A deadline that has
  /// already passed returns `TimeLimit` before presolve runs. The default
  /// (`time_point::max()`) leaves only `time_limit_s` in charge.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation token, polled wherever the deadline is polled
  /// (simplex iteration loops every 256 iterations, each B&B node boundary).
  /// Setting the pointed-to flag stops the solve exactly like an expired
  /// deadline: the best incumbent and a sound `best_bound` are returned with
  /// status `TimeLimit`, and — when checkpointing is armed — the surviving
  /// frontier is written so the solve is resumable. This is how
  /// `serve::ExplorationService` preempts in-flight solves on drain. Null
  /// (the default) costs one pointer test per poll site.
  const std::atomic<bool>* cancel = nullptr;
  bool use_presolve = true;
  /// Warm-start node LPs with the dual simplex (false = cold primal solve at
  /// every node; exposed for the `bench_milp` warm-start ablation).
  bool warm_start = true;
  /// Optional cross-solve warm start (milp/warm_start.hpp): a previous
  /// solve's root basis and/or incumbent vector, typically from the prior
  /// scenario of a compiled-model sweep. The basis is installed into the
  /// root LP and reoptimized with the dual simplex; a hint that no longer
  /// fits the model (structure changed) or has decayed numerically falls
  /// back to a cold primal root deterministically. Honored only when
  /// `use_presolve` is false — presolve's reduced column space differs per
  /// call, so nothing in the hint would line up. Non-owning; must outlive
  /// the call. Null (the default) is the ordinary cold root.
  const WarmStartHint* warm_hint = nullptr;
  /// Export the root LP's optimal basis into `Solution::final_basis` so the
  /// caller can warm-start the next structurally identical solve. Off by
  /// default (the snapshot copies the status vectors and pins the LU
  /// factorization snapshot).
  bool export_basis = false;
  /// Use the root rounding heuristic to seed the incumbent.
  bool rounding_heuristic = true;
  /// Worker threads for the tree search; values below 1 mean 1. Every solve
  /// runs the same work-stealing open-node pool. At 1 (the default) its one
  /// worker pops LIFO from its own deque: node order, counts and incumbents
  /// are identical run to run on any host. At >= 2 the root phase (root LP,
  /// rounding heuristic, probe dive, reduced-cost fixing) stays on the
  /// calling thread, then worker 0 (which adopts the root solver) and N - 1
  /// peers with private SimplexSolvers consume the pool, warm-starting each
  /// stolen node via dual simplex from the basis snapshot exported when its
  /// parent was branched. The optimum is the same; the path is not.
  int num_threads = 1;
  SimplexOptions lp{};
  /// Optional per-improvement callback (incumbent objective in model sense).
  /// With num_threads >= 2 it may fire from worker threads; calls are
  /// serialized under the incumbent lock.
  std::function<void(double)> on_incumbent{};
  /// CPLEX-style live node log: a progress line roughly every
  /// `log_interval` seconds to `log_sink`. Both must be set (interval > 0,
  /// sink non-null) to enable; off by default.
  double log_interval = 0.0;
  std::ostream* log_sink = nullptr;
  /// Metrics registry to report into (phase timers, node/steal/pivot
  /// counters; see docs/observability.md for the names). Null = the solve
  /// uses a private registry, snapshotted into `Solution::metrics` either
  /// way. The arch `Problem` passes its own so encode and solve share one.
  obs::MetricsRegistry* metrics = nullptr;
  /// Run the independent solution certifier (check::certify — a code path
  /// disjoint from the simplex) on the final incumbent: every row of the
  /// *original pre-presolve* model, bounds, integrality and the objective
  /// value are re-verified, and the residuals land in Solution::metrics
  /// under `check.certify.*` (`check.certify.ok` is 1.0 when the answer
  /// certifies). Pure-LP solves without presolve additionally certify dual
  /// feasibility and complementary slackness. On by default — the cost is
  /// one pass over the matrix per solve; see docs/diagnostics.md.
  bool certify = true;
  double certify_tol = 1e-6;  ///< residual tolerance for the certifier
  /// Deterministic fault-injection plan shared by the root solver and every
  /// worker (copied into `lp.fault` unless one is already set there). Null —
  /// the default — is zero-cost. See milp/fault.hpp and docs/diagnostics.md.
  FaultPlan* fault = nullptr;
  /// Numerical-recovery ladder: after the tightened-refactorization and
  /// cold-restart rungs both fail on a node, the node is quarantined and
  /// re-enqueued for this many fresh cold attempts before its subtree is
  /// abandoned (the parent bound is then folded into `Solution::best_bound`
  /// — never an unsound prune — and `Solution::degraded` is set).
  int recover_max_retries = 2;
  /// Checkpoint/resume. A non-empty path makes the tree phase periodically
  /// serialize the incumbent, global bound and open-node frontier to this
  /// file (write-temp-then-rename; format in docs/solver.md). Snapshots do
  /// not change the search: with and without a checkpoint file, a
  /// `num_threads = 1` solve explores the same nodes.
  std::string checkpoint_file{};
  /// Seconds between checkpoint writes; <= 0 checkpoints after every node
  /// (tests and kill-resume drills).
  double checkpoint_interval_s = 30.0;
  /// Resume from `checkpoint_file` when it exists and its model fingerprint
  /// matches; otherwise (missing/corrupt/mismatched) the solve starts fresh
  /// and sets the `milp.checkpoint.rejected` metric.
  bool resume = false;
  /// Optional instrumentation stream (obs/recorder.hpp). The solve writes
  /// `solve_start`/`solve_end`, its five phase spans and the root-phase
  /// events into ring 0 (the calling thread's), and each pool worker writes
  /// node, steal, incumbent, bound and kernel records into its own ring
  /// (copied into `lp.ring` per worker). A recorder may span several
  /// sequential solves (the lazy loop); records dropped to a full ring
  /// surface per solve as the `milp.records_dropped` counter. Export with
  /// `Recorder::trace().write_jsonl` (`milp_solve --trace-json`) or
  /// `Recorder::write_chrome_trace` (`--profile-json`). Null — the default —
  /// keeps every record site at one pointer test and allocates nothing.
  obs::Recorder* recorder = nullptr;
};

/// Solves the mixed integer program `model`. The returned solution vector is
/// in the original (pre-presolve) variable space.
Solution solve_milp(const Model& model, const MilpOptions& options = {});

}  // namespace archex::milp
