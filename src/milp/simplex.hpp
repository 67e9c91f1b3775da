/// \file simplex.hpp
/// Bounded-variable revised simplex over a pluggable basis kernel.
///
/// This is the LP engine underneath the branch-and-bound MILP solver (the
/// role CPLEX plays for the original ArchEx toolbox). It implements:
///   * two-phase primal simplex (phase 1 via artificial variables),
///   * dual simplex reoptimization after variable-bound changes, which is
///     what makes warm-started branch & bound cheap: branching only changes
///     bounds, and bound changes preserve dual feasibility of the basis,
///   * a basis representation behind `BasisRep` (milp/basis_lu.hpp): sparse
///     LU with Markowitz pivoting and Forrest–Tomlin updates by default, the
///     original dense explicit inverse as the cross-check kernel, both with
///     periodic refactorization governed by `refactor_interval` and the
///     update growth bound,
///   * pluggable pricing (milp/pricing.hpp): Dantzig by default, devex as
///     the first registered alternative.
///
/// The engine works on the standard computational form: every row
/// `a_i x (<=|>=|==) b_i` becomes `a_i x + s_i = b_i` with a bounded slack
/// s_i, and all columns (structural, slack, artificial) are treated
/// uniformly as bounded variables.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "milp/basis_lu.hpp"
#include "milp/model.hpp"
#include "milp/pricing.hpp"
#include "milp/warm_start.hpp"
#include "obs/recorder.hpp"

namespace archex::milp {

class FaultPlan;

/// What triggered a basis refactorization (SimplexSolver::ReoptStats).
enum class RefactorCause : std::uint8_t {
  Interval,    ///< `refactor_interval` pivots since the last one
  Growth,      ///< the kernel's growth governor (update fill or accuracy)
  SmallPivot,  ///< |w[r]| < pivot_tol: rebuild and retry the iteration
  Load,        ///< load_basis() of a basis without a usable snapshot
  Recover,     ///< the numerical-recovery ladder's first rung
};
inline constexpr std::size_t kRefactorCauses = 5;
/// "interval", "growth", "small_pivot", "load", "recover".
[[nodiscard]] const char* to_string(RefactorCause c);

/// Simplex configuration knobs.
struct SimplexOptions {
  double feas_tol = 1e-7;    ///< primal feasibility tolerance
  double opt_tol = 1e-7;     ///< dual feasibility (reduced cost) tolerance
  double pivot_tol = 1e-8;   ///< minimum acceptable pivot magnitude
  std::int64_t max_iterations = 50'000'000;
  int refactor_interval = 400;  ///< pivots between basis refactorizations
  int bland_threshold = 300;    ///< degenerate pivots before Bland's rule kicks in
  /// Basis kernel (see milp/basis_lu.hpp). SparseLu is the default; Dense is
  /// the original explicit inverse, kept as the cross-check oracle.
  BasisKernel kernel = BasisKernel::SparseLu;
  /// Markowitz threshold partial pivoting (sparse kernel only): within a
  /// candidate column, entries at least this fraction of the column max are
  /// acceptable pivots. Smaller favors sparsity, larger favors stability.
  double markowitz_tol = 0.1;
  /// Forrest–Tomlin growth bound (sparse kernel only): refactorize once the
  /// updates' spikes and row etas hold more than this multiple of the LU
  /// nonzeros, even before `refactor_interval` pivots have accumulated.
  /// Every solve pays for the updates, and refactorizing is cheap on
  /// simplex bases: 1.0 beat 3.0 per simplex iteration on the EPN models.
  double eta_fill_factor = 1.0;
  /// Pricing rule by registry name (milp/pricing.hpp): "dantzig" (default)
  /// or "devex"; unknown names fall back to Dantzig.
  std::string pricing = "dantzig";
  /// Anti-degeneracy perturbation. Architecture MILPs are massively
  /// degenerate (symmetric costs, unit-capacity flows); tiny deterministic
  /// *relaxing* bound shifts and cost jitter break the ties. Bounds are only
  /// ever widened, so LP objective values remain valid lower bounds; reported
  /// objectives always use the true costs and solutions are clamped back to
  /// the true bounds.
  bool perturb = false;
  double bound_pert = 1e-8;  ///< bound widening magnitude
  double cost_pert = 1e-10;  ///< relative cost jitter magnitude
  /// Hard wall-clock deadline; simplex loops return TimeLimit when passed.
  /// Defaults to "never". Checked every few hundred iterations.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation flag, polled at the same stride as `deadline`.
  /// A set flag makes the iteration loops return TimeLimit — the caller
  /// (B&B, or `serve::ExplorationService` on drain) decides what the stop
  /// means. Null (the default) costs one pointer test per poll.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional record ring (obs/recorder.hpp) of this solver's thread: the
  /// `refactor` and full-pass `price` spans, dual-repair and cold-restart
  /// events, and the ftran / btran_row / price_row spans of one pivot in
  /// `kSpanSample`. Must be written by this solver's thread only — the
  /// branch & bound hands each worker's solver its own ring. Null (the
  /// default) costs one pointer test per site.
  obs::Ring* ring = nullptr;
  /// Deterministic fault injection (tests, `milp_solve --inject`). Null —
  /// the default — disables every site at the cost of one pointer test.
  /// Shared across solvers of one solve; see milp/fault.hpp.
  FaultPlan* fault = nullptr;
};

/// The LP-facing alias used by docs and downstream options plumbing.
using LpOptions = SimplexOptions;

/// LP engine over a fixed constraint matrix with mutable variable bounds.
///
/// Usage:
///   SimplexSolver lp(model);
///   SolveStatus st = lp.solve_primal();        // cold start, two-phase
///   ...
///   lp.set_bounds(col, 1.0, 1.0);              // branch: fix a binary
///   st = lp.reoptimize_dual();                 // warm-started node solve
///   lp.set_bounds(col, 0.0, 1.0);              // backtrack
class SimplexSolver {
 public:
  explicit SimplexSolver(const Model& model, SimplexOptions options = {});

  /// Solves from a fresh slack/artificial basis (two-phase primal).
  SolveStatus solve_primal();

  /// Reoptimizes with the dual simplex after bound changes. Requires a prior
  /// successful solve (which left a dual-feasible basis). Falls back to a
  /// cold primal solve if the basis has decayed numerically.
  SolveStatus reoptimize_dual();

  /// First rung of the branch & bound's numerical-recovery ladder: rebuild
  /// the basis factorization from scratch and reoptimize under a temporarily
  /// tightened pivot-acceptance tolerance, so the marginal pivots that
  /// poisoned the factorization are refused on the retry. Returns
  /// NumericalError when the rebuilt basis is still singular or the
  /// reoptimization fails again; callers then escalate to a cold restart.
  SolveStatus recover_resolve();

  /// Changes the bounds of structural column `col` (0-based model index).
  /// Getters return the *true* (unperturbed) bounds.
  void set_bounds(std::int32_t col, double lb, double ub);
  [[nodiscard]] double lower_bound(std::int32_t col) const { return true_lb_[col]; }
  [[nodiscard]] double upper_bound(std::int32_t col) const { return true_ub_[col]; }

  /// Objective value of the last solve, in *minimization* sense.
  [[nodiscard]] double objective_value() const { return obj_value_; }

  /// Values of the structural variables after the last solve.
  [[nodiscard]] std::vector<double> primal_solution() const;

  /// Reduced costs of the structural columns w.r.t. the true objective and
  /// the current basis, reported in the *model's own sense* (the internal
  /// minimize-sense values are flipped back for Maximize models). Used for
  /// root reduced-cost fixing in the branch & bound.
  [[nodiscard]] std::vector<double> reduced_costs() const;

  /// Dual values (shadow prices) of the rows w.r.t. the true objective and
  /// the current basis: y = c_B^T B^-1, reported in the *model's own sense*
  /// (flipped back for Maximize models). The sensitivity interface
  /// architects use to see which requirement is driving cost.
  [[nodiscard]] std::vector<double> dual_values() const;
  /// Status of a structural column in the current basis.
  enum class BoundStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };
  [[nodiscard]] BoundStatus column_status(std::int32_t col) const;

  [[nodiscard]] std::int64_t iterations() const { return total_iterations_; }
  [[nodiscard]] std::size_t num_rows() const { return m_; }
  [[nodiscard]] std::size_t num_structural() const { return n_; }

  /// Compact snapshot of a simplex basis — the hand-off unit of the parallel
  /// branch & bound and of the sweep pipeline's cross-solve warm starts. The
  /// struct itself lives at namespace scope (milp/warm_start.hpp) so that
  /// `Solution` can carry one; this alias keeps the historical spelling.
  using Basis = milp::Basis;

  /// Exports the current basis. Only meaningful after a successful solve.
  [[nodiscard]] Basis export_basis() const;

  /// Installs a basis exported from a solver over the *same model*: adopts
  /// the shipped factorization state (update replay) when present, otherwise
  /// refactorizes the basis matrix; recomputes basic values against the
  /// current bounds, and revalidates. Returns false (leaving the solver in
  /// a cold-start state) if the snapshot is inconsistent or the basis is
  /// numerically singular; callers then fall back to solve_primal().
  bool load_basis(const Basis& basis);

  /// Warm-start behaviour counters (reoptimize_dual path taken).
  struct ReoptStats {
    std::int64_t dual_fast = 0;   ///< dual-feasible warm dual solves
    std::int64_t repaired = 0;    ///< dual repair + primal cleanup
    std::int64_t cold = 0;        ///< fell back to a cold primal solve
    std::int64_t degen_pivots = 0;  ///< pivots with (near-)zero step
    std::int64_t total_pivots = 0;
    std::int64_t refactors = 0;   ///< basis refactorizations (all causes)
    /// Refactorizations by RefactorCause; sums to `refactors`.
    std::array<std::int64_t, kRefactorCauses> refactors_by{};
    std::int64_t transplants = 0; ///< basis loads served by a factor snapshot
  };
  [[nodiscard]] const ReoptStats& reopt_stats() const { return reopt_stats_; }

 private:
  enum class ColStatus : std::uint8_t { Basic, AtLower, AtUpper, Free };

  // --- setup ---
  void build_from_model(const Model& model);
  void initial_basis();

  // --- linear algebra (delegating to the basis kernel) ---
  /// w = Binv * A_col for the entering column (dense result, sparse column
  /// input) and `wnz` its nonzero positions, in no particular order; the
  /// kernel keeps what its next update needs.
  void ftran_entering(std::int32_t col, std::vector<double>& w,
                      std::vector<std::int32_t>& wnz);
  /// rho = row r of Binv (B^-T e_r), row-indexed.
  void btran_row(std::size_t r, std::vector<double>& rho) const;
  /// alpha_j = rho * A_j for every column with a nonzero, computed sparsely
  /// through the row-wise adjacency; touched columns are listed in
  /// `alpha_nz` and must be zeroed through it after use.
  void price_row(const std::vector<double>& rho, std::vector<double>& alpha,
                 std::vector<std::int32_t>& alpha_nz) const;
  /// Rebuilds the basis factorization (stats by cause, refactor span, fault
  /// site), then delegates to the kernel. Returns false on a (numerically)
  /// singular basis or an injected singular factorization.
  bool refactorize(RefactorCause cause);
  /// The cause of a scheduled refactorization, if one is due.
  [[nodiscard]] std::optional<RefactorCause> refactor_due() const {
    if (pivots_since_refactor_ >= opts_.refactor_interval) return RefactorCause::Interval;
    if (rep_->growth_exceeded()) return RefactorCause::Growth;
    return std::nullopt;
  }
  /// Recomputes the values of basic variables from nonbasic values.
  void compute_basic_values();
  /// Kernel update for a pivot (entering column's ftran result `w`, pivot
  /// row `r`).
  void update_factors(const std::vector<double>& w, std::size_t r,
                      const std::vector<std::int32_t>& wnz);

  // --- entering-candidate bookkeeping ---
  /// Rebuilds `cand_` as the nonbasic, non-fixed columns. Called at the top
  /// of each primal loop; within the loop the list is maintained per pivot,
  /// so entering selection scans candidates instead of every column.
  void rebuild_candidates();
  void cand_remove(std::int32_t j) {
    const std::int32_t at = cand_idx_[static_cast<std::size_t>(j)];
    if (at < 0) return;
    const std::int32_t last = cand_.back();
    cand_[static_cast<std::size_t>(at)] = last;
    cand_idx_[static_cast<std::size_t>(last)] = at;
    cand_.pop_back();
    cand_idx_[static_cast<std::size_t>(j)] = -1;
  }
  void cand_add(std::int32_t j) {
    if (cand_idx_[static_cast<std::size_t>(j)] >= 0 || is_fixed(j)) return;
    cand_idx_[static_cast<std::size_t>(j)] = static_cast<std::int32_t>(cand_.size());
    cand_.push_back(j);
  }

  // --- dual leaving-row bookkeeping ---
  /// Rebuilds `infeasible_` as the rows whose basic variable violates a
  /// bound by more than feas_tol. The dual loop calls it after every
  /// compute_basic_values() and in between re-checks only the rows a pivot
  /// moved, so choosing the leaving row scans tens of rows instead of all m.
  void rebuild_infeasible();
  /// Adds row i to or drops it from `infeasible_` after its value changed.
  void track_infeasible(std::size_t i);

  // --- simplex cores ---
  SolveStatus primal_loop(const std::vector<double>& cost, bool phase_one);
  /// Dual simplex from the current basis. Expects `scratch_d_` to hold the
  /// basis's reduced costs against `pert_cost_`, as dual_feasible() leaves it.
  SolveStatus dual_loop();
  /// Prices `pert_cost_` into `scratch_d_`; true if the current basis
  /// satisfies the reduced-cost sign conditions.
  bool dual_feasible();
  void price(const std::vector<double>& cost, std::vector<double>& d) const;
  double current_objective(const std::vector<double>& cost) const;

  [[nodiscard]] bool is_fixed(std::int32_t j) const { return true_lb_[j] == true_ub_[j]; }
  [[nodiscard]] double bound_violation(std::int32_t j) const;

  /// Pivots per sampled kernel span: one pivot in 64 records its ftran /
  /// btran_row / price_row spans, so a million-pivot solve stays cheap.
  static constexpr std::int64_t kSpanSample = 64;
  /// The ring for the current pivot's kernel spans, or null when recording
  /// is off or this pivot falls outside the sample. A null `opts_.ring` —
  /// the default — short-circuits before the modulo.
  [[nodiscard]] obs::Ring* sampled_ring() const {
    return (opts_.ring != nullptr && total_iterations_ % kSpanSample == 0) ? opts_.ring
                                                                          : nullptr;
  }

  // --- compressed-storage accessors ---
  /// Entries of column j (CSC slice).
  [[nodiscard]] std::span<const ColEntry> col(std::size_t j) const {
    return {col_ent_.data() + col_start_[j], col_ent_.data() + col_start_[j + 1]};
  }
  /// Row-wise adjacency of row i over structural + slack columns; `row` in
  /// each entry is the column index.
  [[nodiscard]] std::span<const ColEntry> row_adj(std::size_t i) const {
    return {row_ent_.data() + row_start_[i], row_ent_.data() + row_start_[i + 1]};
  }
  /// The single matrix entry of row i's artificial column (sign mutates per
  /// cold start / basis load).
  [[nodiscard]] double& art_val(std::size_t i) {
    return col_ent_[static_cast<std::size_t>(col_start_[n_ + m_ + i])].val;
  }
  [[nodiscard]] double art_val(std::size_t i) const {
    return col_ent_[static_cast<std::size_t>(col_start_[n_ + m_ + i])].val;
  }

  // --- data ---
  SimplexOptions opts_;
  std::size_t m_ = 0;  ///< rows
  std::size_t n_ = 0;  ///< structural columns
  std::size_t total_cols_ = 0;  ///< n + m slacks + m artificials

  // Sparse columns of [A | I_slack | I_artificial] in compressed (CSC) form:
  // column j is col_ent_[col_start_[j] .. col_start_[j+1]). Flat storage
  // keeps the pricing/ftran scans on contiguous memory and spares the
  // per-column allocations of a vector-of-vectors.
  std::vector<std::int32_t> col_start_;  ///< size total_cols_ + 1
  std::vector<ColEntry> col_ent_;
  // Row-wise adjacency (CSR) over structural + slack columns; `row` in an
  // entry is the *column* index. Artificials are handled specially: their
  // single sign entry lives in col_ent_ and mutates per cold start.
  std::vector<std::int32_t> row_start_;  ///< size m_ + 1
  std::vector<ColEntry> row_ent_;
  std::vector<double> rhs_;
  std::vector<double> cost_;       ///< true phase-2 cost (minimize), size total_cols_
  std::vector<double> pert_cost_;  ///< perturbed cost used for pricing decisions
  std::vector<double> lb_, ub_;    ///< working (perturbation-widened) bounds
  std::vector<double> true_lb_, true_ub_;  ///< unperturbed bounds
  std::vector<double> pert_;       ///< per-column bound widening (0 for artificials)
  std::vector<ColStatus> status_;
  std::vector<double> xval_;       ///< current value per column
  std::vector<std::int32_t> basic_;    ///< column basic in row i
  std::vector<std::int32_t> basis_pos_;  ///< row of a basic column, -1 otherwise
  std::vector<std::int32_t> cand_;     ///< nonbasic non-fixed columns (loop-local)
  std::vector<std::int32_t> cand_idx_; ///< index in cand_, -1 when absent
  std::vector<std::int32_t> infeasible_;     ///< rows over feas_tol (dual loop)
  std::vector<std::int32_t> infeasible_at_;  ///< index in infeasible_, -1 when absent
  std::unique_ptr<BasisRep> rep_;  ///< basis kernel (sparse LU or dense)
  std::unique_ptr<Pricer> pricer_;
  bool dantzig_pricing_ = true;  ///< devirtualized |d_j| scoring fast path
  double obj_value_ = 0.0;
  double obj_constant_ = 0.0;      ///< constant of the (minimize-sense) objective
  bool maximize_ = false;          ///< model was a maximization (cost_ is negated)
  std::int64_t total_iterations_ = 0;
  int pivots_since_refactor_ = 0;
  bool basis_valid_ = false;       ///< a successful solve happened
  ReoptStats reopt_stats_;
  // scratch buffers
  mutable std::vector<double> scratch_w_;
  mutable std::vector<std::int32_t> scratch_wnz_;  ///< nonzero positions of scratch_w_
  mutable std::vector<double> scratch_y_;
  mutable std::vector<double> scratch_d_;
  mutable std::vector<double> scratch_alpha_;
  mutable std::vector<std::int32_t> scratch_alpha_nz_;
  mutable std::vector<double> scratch_rho_;
  mutable std::vector<std::int32_t> scratch_rho_nz_;  ///< nonzero rows of rho (price_row)
  // price_row first-touch marks (per-call stamps; never reset, 64-bit).
  mutable std::vector<std::int64_t> scratch_mark_;
  mutable std::int64_t mark_stamp_ = 0;
};

/// Convenience: solves the LP relaxation of `model` (integrality dropped).
/// Returns objective in the model's own sense. With `options.ring` set, the
/// ring gets one solve_start / solve_end pair around the kernel records.
Solution solve_lp_relaxation(const Model& model, SimplexOptions options = {});

}  // namespace archex::milp
