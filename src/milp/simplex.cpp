#include "milp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "milp/fault.hpp"

namespace archex::milp {

namespace {
constexpr double kRatioTol = 1e-9;   // rows with |w| below this do not block
constexpr double kDegenTol = 1e-10;  // step sizes below this count as degenerate
}  // namespace

const char* to_string(RefactorCause c) {
  switch (c) {
    case RefactorCause::Interval: return "interval";
    case RefactorCause::Growth: return "growth";
    case RefactorCause::SmallPivot: return "small_pivot";
    case RefactorCause::Load: return "load";
    case RefactorCause::Recover: return "recover";
  }
  return "unknown";
}

SimplexSolver::SimplexSolver(const Model& model, SimplexOptions options)
    : opts_(std::move(options)) {
  build_from_model(model);
}

void SimplexSolver::build_from_model(const Model& model) {
  m_ = model.num_constraints();
  n_ = model.num_vars();
  total_cols_ = n_ + 2 * m_;  // structural | slacks | artificials

  rhs_.resize(m_);
  cost_.assign(total_cols_, 0.0);
  lb_.resize(total_cols_);
  ub_.resize(total_cols_);

  for (std::size_t j = 0; j < n_; ++j) {
    const Variable& v = model.vars()[j];
    lb_[j] = v.lb;
    ub_[j] = v.ub;
  }

  // Compressed column storage, two passes: count entries per column, prefix
  // sum, then fill through a cursor. Processing rows in ascending order keeps
  // each column's entries row-sorted, exactly as the per-column push_backs
  // used to.
  col_start_.assign(total_cols_ + 1, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    for (const Term& t : model.constraint(i).expr.terms()) {
      ++col_start_[static_cast<std::size_t>(t.var.index) + 1];
    }
    ++col_start_[n_ + i + 1];       // slack
    ++col_start_[n_ + m_ + i + 1];  // artificial
  }
  for (std::size_t j = 0; j < total_cols_; ++j) col_start_[j + 1] += col_start_[j];
  col_ent_.resize(static_cast<std::size_t>(col_start_[total_cols_]));
  std::vector<std::int32_t> cursor(col_start_.begin(), col_start_.end() - 1);

  for (std::size_t i = 0; i < m_; ++i) {
    const LinConstraint& c = model.constraint(i);
    rhs_[i] = c.rhs;
    for (const Term& t : c.expr.terms()) {
      col_ent_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(t.var.index)]++)] =
          {static_cast<std::int32_t>(i), t.coef};
    }
    // Slack: a_i x + s_i = b_i.
    const std::size_t s = n_ + i;
    col_ent_[static_cast<std::size_t>(cursor[s]++)] = {static_cast<std::int32_t>(i), 1.0};
    switch (c.sense) {
      case Sense::LE: lb_[s] = 0.0;   ub_[s] = kInf; break;
      case Sense::GE: lb_[s] = -kInf; ub_[s] = 0.0;  break;
      case Sense::EQ: lb_[s] = 0.0;   ub_[s] = 0.0;  break;
    }
    // Artificial: sign chosen per cold start in initial_basis().
    const std::size_t a = n_ + m_ + i;
    col_ent_[static_cast<std::size_t>(cursor[a]++)] = {static_cast<std::int32_t>(i), 1.0};
    lb_[a] = 0.0;
    ub_[a] = 0.0;  // enabled (un-fixed) only while basic in phase 1
  }

  // Row-wise adjacency over the immutable columns (structural + slack) for
  // sparse pivot-row pricing. Artificial columns are excluded: their matrix
  // sign mutates per cold start, so price_row handles them directly. Filling
  // by ascending column keeps each row's entries column-sorted, matching the
  // historical accumulation order.
  const std::size_t ns_end = static_cast<std::size_t>(col_start_[n_ + m_]);
  row_start_.assign(m_ + 1, 0);
  for (std::size_t t = 0; t < ns_end; ++t) {
    ++row_start_[static_cast<std::size_t>(col_ent_[t].row) + 1];
  }
  for (std::size_t i = 0; i < m_; ++i) row_start_[i + 1] += row_start_[i];
  row_ent_.resize(ns_end);
  std::vector<std::int32_t> rcur(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t j = 0; j < n_ + m_; ++j) {
    for (std::int32_t t = col_start_[j]; t < col_start_[j + 1]; ++t) {
      const ColEntry& e = col_ent_[static_cast<std::size_t>(t)];
      row_ent_[static_cast<std::size_t>(rcur[static_cast<std::size_t>(e.row)]++)] =
          {static_cast<std::int32_t>(j), e.val};
    }
  }

  maximize_ = model.objective_sense() == ObjectiveSense::Maximize;
  const double flip = maximize_ ? -1.0 : 1.0;
  for (const Term& t : model.objective().terms()) {
    cost_[static_cast<std::size_t>(t.var.index)] = flip * t.coef;
  }
  obj_constant_ = flip * model.objective().constant();

  // Perturbation setup: deterministic per-column jitter in (0.5, 1].
  true_lb_ = lb_;
  true_ub_ = ub_;
  pert_.assign(total_cols_, 0.0);
  pert_cost_ = cost_;
  if (opts_.perturb) {
    auto jitter = [](std::size_t j, std::uint64_t salt) {
      std::uint64_t h = (j + 1) * 0x9E3779B97F4A7C15ull + salt;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDull;
      h ^= h >> 33;
      return 0.5 + 0.5 * static_cast<double>(h % 1000003) / 1000003.0;
    };
    for (std::size_t j = 0; j < n_ + m_; ++j) {  // structural + slack only
      pert_[j] = opts_.bound_pert * jitter(j, 0x1234);
      if (lb_[j] > -kInf) lb_[j] -= pert_[j];
      if (ub_[j] < kInf) ub_[j] += pert_[j];
    }
    for (std::size_t j = 0; j < total_cols_; ++j) {
      pert_cost_[j] += opts_.cost_pert * (1.0 + std::abs(cost_[j])) * jitter(j, 0x5678);
    }
  }

  status_.assign(total_cols_, ColStatus::AtLower);
  xval_.assign(total_cols_, 0.0);
  basic_.assign(m_, -1);
  basis_pos_.assign(total_cols_, -1);
  rep_ = make_basis_rep(opts_.kernel, m_, opts_.markowitz_tol, opts_.eta_fill_factor);
  pricer_ = make_pricer(opts_.pricing);
  if (pricer_ == nullptr) pricer_ = make_pricer("dantzig");  // unknown name
  pricer_->reset(total_cols_);
  dantzig_pricing_ = std::string_view(pricer_->name()) == "dantzig";
  scratch_w_.resize(m_);
  scratch_wnz_.reserve(m_);
  scratch_y_.resize(m_);
  scratch_rho_.resize(m_);
  scratch_d_.resize(total_cols_);
  scratch_alpha_.resize(total_cols_);
  scratch_alpha_nz_.reserve(total_cols_);
  scratch_mark_.assign(total_cols_, 0);
}

void SimplexSolver::initial_basis() {
  std::fill(basis_pos_.begin(), basis_pos_.end(), -1);

  // Nonbasic structural columns rest at their nearest finite bound.
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (lb_[j] > -kInf) {
      status_[j] = ColStatus::AtLower;
      xval_[j] = lb_[j];
    } else if (ub_[j] < kInf) {
      status_[j] = ColStatus::AtUpper;
      xval_[j] = ub_[j];
    } else {
      status_[j] = ColStatus::Free;
      xval_[j] = 0.0;
    }
  }

  // Residual of each row given the nonbasic resting point.
  std::vector<double> r = rhs_;
  for (std::size_t j = 0; j < n_; ++j) {
    if (xval_[j] == 0.0) continue;
    for (const ColEntry& e : col(j)) r[static_cast<std::size_t>(e.row)] -= e.val * xval_[j];
  }

  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t s = n_ + i;
    const std::size_t a = n_ + m_ + i;
    lb_[a] = true_lb_[a] = 0.0;
    ub_[a] = true_ub_[a] = 0.0;
    if (r[i] >= lb_[s] - opts_.feas_tol && r[i] <= ub_[s] + opts_.feas_tol) {
      // The slack absorbs the residual: no artificial needed for this row.
      basic_[i] = static_cast<std::int32_t>(s);
      basis_pos_[s] = static_cast<std::int32_t>(i);
      status_[s] = ColStatus::Basic;
      xval_[s] = r[i];
    } else {
      art_val(i) = (r[i] >= 0.0) ? 1.0 : -1.0;
      ub_[a] = true_ub_[a] = kInf;  // live artificial
      basic_[i] = static_cast<std::int32_t>(a);
      basis_pos_[a] = static_cast<std::int32_t>(i);
      status_[a] = ColStatus::Basic;
      xval_[a] = std::abs(r[i]);
    }
  }
  // The initial basis is diagonal (unit slacks, signed artificials), so this
  // factorization is trivial and cannot fail; it is not counted or traced as
  // a refactorization, matching the historical accounting.
  const bool ok = rep_->factorize(col_start_.data(), col_ent_.data(), basic_);
  assert(ok);
  (void)ok;
  pivots_since_refactor_ = 0;
}

void SimplexSolver::ftran_entering(std::int32_t col, std::vector<double>& w,
                                   std::vector<std::int32_t>& wnz) {
  std::fill(w.begin(), w.end(), 0.0);
  wnz.clear();
  for (const ColEntry& e : this->col(static_cast<std::size_t>(col))) {
    w[static_cast<std::size_t>(e.row)] += e.val;
    wnz.push_back(e.row);
  }
  rep_->ftran_entering(w, wnz);
}

void SimplexSolver::btran_row(std::size_t r, std::vector<double>& rho) const {
  rho.resize(m_);
  rep_->btran_unit(r, rho);
}

void SimplexSolver::price_row(const std::vector<double>& rho,
                              std::vector<double>& alpha,
                              std::vector<std::int32_t>& alpha_nz) const {
  // alpha entries outside alpha_nz are stale from earlier calls; consumers
  // must only read through the nonzero list.
  alpha_nz.clear();
  const std::int64_t stamp = ++mark_stamp_;
  // rho is sparse (tens of nonzeros in hundreds of rows): list its nonzero
  // rows with a branch-free pass first, then visit only those, in order.
  std::vector<std::int32_t>& rows = scratch_rho_nz_;
  rows.resize(m_);
  std::size_t nrows = 0;
  for (std::size_t i = 0; i < m_; ++i) {
    rows[nrows] = static_cast<std::int32_t>(i);
    nrows += rho[i] != 0.0 ? 1 : 0;
  }
  for (std::size_t k = 0; k < nrows; ++k) {
    const std::size_t i = static_cast<std::size_t>(rows[k]);
    const double r = rho[i];
    for (const ColEntry& e : row_adj(i)) {
      const std::size_t j = static_cast<std::size_t>(e.row);  // a column index
      if (scratch_mark_[j] != stamp) {
        scratch_mark_[j] = stamp;
        alpha[j] = r * e.val;
        // Basic columns stay out of the nonzero list: every consumer skips
        // them (their reduced costs are maintained directly at pivots), so
        // listing them only pads the d-update and dual ratio-test scans.
        if (basis_pos_[j] < 0) alpha_nz.push_back(e.row);
      } else {
        alpha[j] += r * e.val;
      }
    }
    // Artificial of row i: a single entry whose sign is set per cold start.
    // Fixed artificials (all of them outside phase 1) can never re-enter, so
    // no consumer reads their reduced cost: skip the bookkeeping entirely
    // rather than dragging them through alpha_nz and the d-update loops.
    const std::size_t a = n_ + m_ + i;
    if (!is_fixed(static_cast<std::int32_t>(a))) {
      scratch_mark_[a] = stamp;
      alpha[a] = r * art_val(i);
      alpha_nz.push_back(static_cast<std::int32_t>(a));
    }
  }
}

bool SimplexSolver::refactorize(RefactorCause cause) {
  // Refactorizations are rare (every ~refactor_interval pivots) and dominate
  // worst-case node latency, so they are spanned unconditionally.
  obs::Region span(opts_.ring, obs::span_id(obs::SpanName::Refactor));
  ++reopt_stats_.refactors;
  ++reopt_stats_.refactors_by[static_cast<std::size_t>(cause)];
  if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::SingularFactor)) {
    return false;  // injected singular factorization
  }
  if (!rep_->factorize(col_start_.data(), col_ent_.data(), basic_)) {
    return false;  // singular basis
  }
  pivots_since_refactor_ = 0;
  return true;
}

void SimplexSolver::compute_basic_values() {
  std::vector<double> r = rhs_;
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic || xval_[j] == 0.0) continue;
    for (const ColEntry& e : col(j)) r[static_cast<std::size_t>(e.row)] -= e.val * xval_[j];
  }
  rep_->ftran(r);  // r := B^-1 r, position-indexed
  for (std::size_t i = 0; i < m_; ++i) {
    xval_[static_cast<std::size_t>(basic_[i])] = r[i];
  }
}

void SimplexSolver::update_factors(const std::vector<double>& w, std::size_t r,
                                   const std::vector<std::int32_t>& wnz) {
  rep_->update(w, r, wnz);
  ++pivots_since_refactor_;
}

void SimplexSolver::rebuild_infeasible() {
  infeasible_.clear();
  infeasible_at_.assign(m_, -1);
  for (std::size_t i = 0; i < m_; ++i) track_infeasible(i);
}

void SimplexSolver::track_infeasible(std::size_t i) {
  const bool over = bound_violation(basic_[i]) > opts_.feas_tol;
  const std::int32_t at = infeasible_at_[i];
  if (over && at < 0) {
    infeasible_at_[i] = static_cast<std::int32_t>(infeasible_.size());
    infeasible_.push_back(static_cast<std::int32_t>(i));
  } else if (!over && at >= 0) {
    const std::int32_t last = infeasible_.back();
    infeasible_[static_cast<std::size_t>(at)] = last;
    infeasible_at_[static_cast<std::size_t>(last)] = at;
    infeasible_.pop_back();
    infeasible_at_[i] = -1;
  }
}

void SimplexSolver::rebuild_candidates() {
  cand_.clear();
  cand_idx_.assign(total_cols_, -1);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic || is_fixed(static_cast<std::int32_t>(j))) {
      continue;
    }
    cand_idx_[j] = static_cast<std::int32_t>(cand_.size());
    cand_.push_back(static_cast<std::int32_t>(j));
  }
}

void SimplexSolver::price(const std::vector<double>& cost, std::vector<double>& d) const {
  // Full passes happen at loop entry and after refactorizations — rare
  // enough to span unconditionally.
  obs::Region span(opts_.ring, obs::span_id(obs::SpanName::Price));
  // y = c_B^T * B^-1 via btran of the position-indexed basic costs.
  std::vector<double>& y = scratch_y_;
  for (std::size_t i = 0; i < m_; ++i) {
    y[i] = cost[static_cast<std::size_t>(basic_[i])];
  }
  rep_->btran(y);
  // d_j = c_j - y * A_j  for nonbasic columns.
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic) { d[j] = 0.0; continue; }
    double v = cost[j];
    for (const ColEntry& e : col(j)) v -= y[static_cast<std::size_t>(e.row)] * e.val;
    d[j] = v;
  }
}

double SimplexSolver::current_objective(const std::vector<double>& cost) const {
  double v = 0.0;
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (cost[j] != 0.0 && xval_[j] != 0.0) v += cost[j] * xval_[j];
  }
  return v;
}

double SimplexSolver::bound_violation(std::int32_t j) const {
  const double x = xval_[static_cast<std::size_t>(j)];
  if (x < lb_[j]) return lb_[j] - x;
  if (x > ub_[j]) return x - ub_[j];
  return 0.0;
}

SolveStatus SimplexSolver::primal_loop(const std::vector<double>& cost, bool phase_one) {
  int degen_streak = 0;
  std::vector<double>& d = scratch_d_;
  std::vector<double>& w = scratch_w_;
  std::vector<std::int32_t>& wnz = scratch_wnz_;
  std::vector<double>& rho = scratch_rho_;
  std::vector<double>& alpha = scratch_alpha_;
  std::vector<std::int32_t>& alpha_nz = scratch_alpha_nz_;

  // Reduced costs are maintained incrementally across pivots via the pivot
  // row (d' = d - (d_q / alpha_q) * alpha); a full pricing pass happens only
  // at entry, after refactorization, and periodically to wash out drift.
  pricer_->reset(total_cols_);
  price(cost, d);
  int prices_stale = 0;
  // Entering selection scans this list (nonbasic, non-fixed columns) rather
  // than all columns; fixedness cannot change inside the loop, so only the
  // per-pivot basis swaps need maintenance. Bland's rule still does a full
  // index-ordered scan — its anti-cycling argument needs lowest-index.
  rebuild_candidates();

  for (;;) {
    if (total_iterations_ >= opts_.max_iterations) return SolveStatus::IterationLimit;
    if ((total_iterations_ & 0xFF) == 0) {
      if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::Deadline)) {
        return SolveStatus::TimeLimit;  // injected mid-solve deadline
      }
      if (std::chrono::steady_clock::now() >= opts_.deadline) {
        return SolveStatus::TimeLimit;
      }
      if (opts_.cancel != nullptr && opts_.cancel->load(std::memory_order_relaxed)) {
        return SolveStatus::TimeLimit;  // cooperative cancel (drain/preempt)
      }
    }
    if (const std::optional<RefactorCause> due = refactor_due()) {
      if (!refactorize(*due)) return SolveStatus::NumericalError;
      compute_basic_values();
      // The reduced costs are *not* re-priced here: refactorization changes
      // the factors, never the basis, so d is mathematically unchanged. The
      // 200-pivot stale counter bounds drift, and the optimality exit below
      // always confirms against a fresh pricing pass.
    }
    if (++prices_stale > 200) {
      price(cost, d);
      prices_stale = 0;
    }

    const bool bland = degen_streak > opts_.bland_threshold;
    std::int32_t q = -1;
    double qdir = 0.0;
    auto select_entering = [&] {
      q = -1;
      qdir = 0.0;
      double best_score = 0.0;
      if (bland) {
        // Bland's rule: first eligible column in index order.
        for (std::size_t j = 0; j < total_cols_; ++j) {
          const ColStatus st = status_[j];
          if (st == ColStatus::Basic) continue;
          const double dj = d[j];
          double dir = 0.0;
          if (st == ColStatus::AtLower && dj < -opts_.opt_tol) dir = 1.0;
          else if (st == ColStatus::AtUpper && dj > opts_.opt_tol) dir = -1.0;
          else if (st == ColStatus::Free && std::abs(dj) > opts_.opt_tol)
            dir = dj < 0 ? 1.0 : -1.0;
          if (dir == 0.0 || is_fixed(static_cast<std::int32_t>(j))) continue;
          q = static_cast<std::int32_t>(j);
          qdir = dir;
          return;
        }
        return;
      }
      for (const std::int32_t j32 : cand_) {
        const std::size_t j = static_cast<std::size_t>(j32);
        const double dj = d[j];
        const ColStatus st = status_[j];
        double dir = 0.0;
        if (st == ColStatus::AtLower && dj < -opts_.opt_tol) dir = 1.0;
        else if (st == ColStatus::AtUpper && dj > opts_.opt_tol) dir = -1.0;
        else if (st == ColStatus::Free && std::abs(dj) > opts_.opt_tol)
          dir = dj < 0 ? 1.0 : -1.0;
        if (dir == 0.0) continue;
        // Devirtualized Dantzig fast path: |d_j|, no indirect call per column.
        const double score =
            dantzig_pricing_ ? std::abs(dj) : pricer_->score(j32, dj);
        if (q < 0 || score > best_score) {
          best_score = score;
          q = j32;
          qdir = dir;
        }
      }
    };
    select_entering();
    if (q < 0 && prices_stale > 0) {
      // Looks optimal on incrementally-maintained reduced costs: confirm
      // with a fresh pricing pass before declaring optimality.
      price(cost, d);
      prices_stale = 0;
      select_entering();
    }
    if (q < 0) {
      // Report with the *true* costs (pricing may have used perturbed ones).
      obj_value_ = phase_one ? current_objective(cost)
                             : current_objective(cost_) + obj_constant_;
      return SolveStatus::Optimal;
    }

    {
      obs::Region ftran_span(sampled_ring(), obs::span_id(obs::SpanName::Ftran));
      ftran_entering(q, w, wnz);
    }

    // Ratio test: how far can the entering variable move? Ties go to the
    // lowest row, so the scan runs over all of w in order and rebuilds w's
    // nonzero positions in that order on the way.
    double t_best = kInf;
    if (lb_[q] > -kInf && ub_[q] < kInf) t_best = ub_[q] - lb_[q];  // own bound flip
    std::int32_t leave_row = -1;
    bool leave_to_upper = false;
    wnz.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      if (w[i] == 0.0) continue;
      wnz.push_back(static_cast<std::int32_t>(i));
      if (std::abs(w[i]) <= kRatioTol) continue;
      const double rho_i = -qdir * w[i];  // d x_B(i) / d t
      const std::int32_t k = basic_[i];
      double t;
      bool to_upper;
      if (rho_i > 0) {
        if (ub_[k] >= kInf) continue;
        t = (ub_[k] - xval_[k]) / rho_i;
        to_upper = true;
      } else {
        if (lb_[k] <= -kInf) continue;
        t = (xval_[k] - lb_[k]) / (-rho_i);
        to_upper = false;
      }
      if (t < 0) t = 0;  // tiny infeasibilities clamp to a degenerate step
      const bool better =
          t < t_best - 1e-12 ||
          (t <= t_best + 1e-12 && leave_row >= 0 &&
           std::abs(w[i]) > std::abs(w[static_cast<std::size_t>(leave_row)]));
      if (better) {
        t_best = t;
        leave_row = static_cast<std::int32_t>(i);
        leave_to_upper = to_upper;
      }
    }

    if (t_best >= kInf) return SolveStatus::Unbounded;

    if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::NanPivot)) {
      // The injected pivot would poison the basis with NaNs; report the
      // failure the update guards would raise.
      return SolveStatus::NumericalError;
    }

    degen_streak = (t_best <= kDegenTol) ? degen_streak + 1 : 0;
    ++reopt_stats_.total_pivots;
    if (t_best <= kDegenTol) ++reopt_stats_.degen_pivots;

    const double delta = qdir * t_best;
    xval_[q] += delta;
    if (delta != 0.0) {
      for (const std::int32_t i : wnz) {
        xval_[static_cast<std::size_t>(basic_[i])] -= w[static_cast<std::size_t>(i)] * delta;
      }
    }

    if (leave_row < 0) {
      // Bound flip: entering moved to its opposite bound, basis unchanged.
      status_[q] = (status_[q] == ColStatus::AtLower) ? ColStatus::AtUpper : ColStatus::AtLower;
      xval_[q] = (status_[q] == ColStatus::AtLower) ? lb_[q] : ub_[q];
    } else {
      const std::size_t r = static_cast<std::size_t>(leave_row);
      if (std::abs(w[r]) < opts_.pivot_tol) {
        // Numerically unsafe pivot: rebuild and retry this iteration.
        if (!refactorize(RefactorCause::SmallPivot)) return SolveStatus::NumericalError;
        compute_basic_values();
        continue;
      }
      const std::int32_t k = basic_[r];
      // Incremental reduced-cost update via the pivot row (computed against
      // the *old* basis factorization, before update_factors).
      const double dq = d[static_cast<std::size_t>(q)];
      if (dq != 0.0) {
        obs::Ring* const sp = sampled_ring();
        obs::Region btran_span(sp, obs::span_id(obs::SpanName::BtranRow));
        btran_row(r, rho);
        btran_span.stop();
        obs::Region price_span(sp, obs::span_id(obs::SpanName::PriceRow));
        price_row(rho, alpha, alpha_nz);
        price_span.stop();
        const double ratio = dq / w[r];
        for (const std::int32_t j32 : alpha_nz) {
          // alpha_nz holds no basic columns (price_row filters them), so the
          // update runs without a per-column status check.
          const std::size_t j = static_cast<std::size_t>(j32);
          if (alpha[j] == 0.0) continue;
          d[j] -= ratio * alpha[j];
        }
        d[static_cast<std::size_t>(k)] = -ratio;  // leaving column (alpha = 1)
        pricer_->on_pivot(q, k, w[r], alpha, alpha_nz);
      } else {
        d[static_cast<std::size_t>(k)] = 0.0;
      }
      d[static_cast<std::size_t>(q)] = 0.0;

      status_[k] = leave_to_upper ? ColStatus::AtUpper : ColStatus::AtLower;
      xval_[k] = leave_to_upper ? ub_[k] : lb_[k];
      basis_pos_[k] = -1;
      basic_[r] = q;
      basis_pos_[q] = static_cast<std::int32_t>(r);
      status_[q] = ColStatus::Basic;
      cand_remove(q);
      cand_add(k);
      update_factors(w, r, wnz);
    }
    ++total_iterations_;
  }
}

SolveStatus SimplexSolver::solve_primal() {
  basis_valid_ = false;
  if (m_ == 0) {
    // No constraints: every variable rests at its cost-optimal bound.
    obj_value_ = obj_constant_;
    for (std::size_t j = 0; j < n_; ++j) {
      if (cost_[j] > 0) {
        if (true_lb_[j] <= -kInf) return SolveStatus::Unbounded;
        xval_[j] = true_lb_[j];
      } else if (cost_[j] < 0) {
        if (true_ub_[j] >= kInf) return SolveStatus::Unbounded;
        xval_[j] = true_ub_[j];
      } else {
        xval_[j] = std::clamp(0.0, true_lb_[j], true_ub_[j]);
      }
      obj_value_ += cost_[j] * xval_[j];
    }
    basis_valid_ = true;
    return SolveStatus::Optimal;
  }

  initial_basis();

  // Phase 1: minimize the sum of the live artificials.
  bool any_artificial = false;
  std::vector<double> phase1_cost(total_cols_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t a = n_ + m_ + i;
    if (ub_[a] > 0.0) {
      phase1_cost[a] = 1.0;
      any_artificial = true;
    }
  }
  if (any_artificial) {
    const SolveStatus st = primal_loop(phase1_cost, /*phase_one=*/true);
    if (st != SolveStatus::Optimal) {
      // Re-freeze the artificials before surfacing the failure. Callers can
      // warm-reoptimize from this state (the recovery ladder does exactly
      // that), and a live zero-cost artificial would let the phase-2 LP
      // absorb constraint violations for free — "optimal" objectives below
      // the true bound, unsound prunes. Frozen at zero they are inert; the
      // dual repair drives any still-basic ones back into bounds.
      for (std::size_t i = 0; i < m_; ++i) {
        const std::size_t a = n_ + m_ + i;
        ub_[a] = true_ub_[a] = 0.0;
      }
      return st;
    }
    double infeas = 0.0;
    for (std::size_t i = 0; i < m_; ++i) infeas += xval_[n_ + m_ + i];
    if (infeas > 1e-6) return SolveStatus::Infeasible;
    // Freeze artificials at zero for phase 2 (basic ones stay, degenerate).
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t a = n_ + m_ + i;
      ub_[a] = true_ub_[a] = 0.0;
      if (status_[a] != ColStatus::Basic) {
        status_[a] = ColStatus::AtLower;
        xval_[a] = 0.0;
      } else {
        xval_[a] = 0.0;  // clamp residual noise
      }
    }
  }

  const SolveStatus st = primal_loop(pert_cost_, /*phase_one=*/false);
  basis_valid_ = (st == SolveStatus::Optimal);
  return st;
}

bool SimplexSolver::dual_feasible() {
  price(pert_cost_, scratch_d_);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic || is_fixed(static_cast<std::int32_t>(j))) continue;
    const double d = scratch_d_[j];
    if (status_[j] == ColStatus::AtLower && d < -opts_.opt_tol) return false;
    if (status_[j] == ColStatus::AtUpper && d > opts_.opt_tol) return false;
    if (status_[j] == ColStatus::Free && std::abs(d) > opts_.opt_tol) return false;
  }
  return true;
}

SolveStatus SimplexSolver::reoptimize_dual() {
  if (!basis_valid_ || m_ == 0) return solve_primal();

  // Bound *tightenings* preserve dual feasibility of the last basis; bound
  // *relaxations* (branch backtracking) can break it, because a nonbasic
  // variable fixed at a bound may carry a wrong-sign reduced cost. The dual
  // simplex is only sound from a dual-feasible basis, so pick the repair
  // direction accordingly.
  SolveStatus st;
  if (dual_feasible()) {
    ++reopt_stats_.dual_fast;
    st = dual_loop();
  } else {
    ++reopt_stats_.repaired;
    if (opts_.ring != nullptr) opts_.ring->emit(obs::EventType::DualRepair);
    // Dual-infeasible warm basis (we backtracked past the point where this
    // basis was optimal). The dual loop is still a valid *primal repair*
    // procedure — its pivots are algebraically sound, only its optimality
    // and infeasibility verdicts lose meaning — so run it to regain primal
    // feasibility, then let the primal simplex restore optimality. Spurious
    // "infeasible" verdicts are confirmed with a cold solve.
    st = dual_loop();
    if (st == SolveStatus::Optimal) {
      st = primal_loop(pert_cost_, /*phase_one=*/false);
    } else if (st == SolveStatus::Infeasible) {
      ++reopt_stats_.cold;
      if (opts_.ring != nullptr) opts_.ring->emit(obs::EventType::ColdRestart);
      st = solve_primal();
    }
  }
  if (st == SolveStatus::NumericalError) {
    // Decayed basis: fall back to a cold start.
    if (opts_.ring != nullptr) opts_.ring->emit(obs::EventType::ColdRestart);
    return solve_primal();
  }
  basis_valid_ = (st == SolveStatus::Optimal);
  return st;
}

SolveStatus SimplexSolver::recover_resolve() {
  if (m_ == 0) return solve_primal();
  // Tightening pivot_tol makes the loops refuse the marginal pivots (and
  // refactorize instead) that plausibly corrupted the factorization the
  // first time; the rebuilt factors give the reoptimization a clean start.
  const double saved_pivot_tol = opts_.pivot_tol;
  opts_.pivot_tol = std::min(1e-6, saved_pivot_tol * 100.0);
  SolveStatus st = SolveStatus::NumericalError;
  if (refactorize(RefactorCause::Recover)) {
    compute_basic_values();
    basis_valid_ = true;
    st = reoptimize_dual();
  }
  opts_.pivot_tol = saved_pivot_tol;
  basis_valid_ = (st == SolveStatus::Optimal);
  return st;
}

SolveStatus SimplexSolver::dual_loop() {
  if (m_ == 0) return solve_primal();
  compute_basic_values();
  rebuild_infeasible();

  std::vector<double>& d = scratch_d_;
  std::vector<double>& w = scratch_w_;
  std::vector<std::int32_t>& wnz = scratch_wnz_;
  std::vector<double>& rho = scratch_rho_;
  std::vector<double>& alphas = scratch_alpha_;
  std::vector<std::int32_t>& alpha_nz = scratch_alpha_nz_;
  int degen_streak = 0;

  // Reduced costs are maintained incrementally across pivots (same pivot-row
  // update as the primal loop); full pricing only after refactorization and
  // periodically against drift. At entry `d` already holds the prices
  // dual_feasible() computed for this basis (compute_basic_values() above
  // leaves them alone), so they are not priced a second time.
  int prices_stale = 0;

  for (;;) {
    if (total_iterations_ >= opts_.max_iterations) return SolveStatus::IterationLimit;
    if ((total_iterations_ & 0xFF) == 0) {
      if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::Deadline)) {
        return SolveStatus::TimeLimit;  // injected mid-solve deadline
      }
      if (std::chrono::steady_clock::now() >= opts_.deadline) {
        return SolveStatus::TimeLimit;
      }
      if (opts_.cancel != nullptr && opts_.cancel->load(std::memory_order_relaxed)) {
        return SolveStatus::TimeLimit;  // cooperative cancel (drain/preempt)
      }
    }
    if (const std::optional<RefactorCause> due = refactor_due()) {
      if (!refactorize(*due)) return SolveStatus::NumericalError;
      compute_basic_values();
      rebuild_infeasible();
      price(pert_cost_, d);
      prices_stale = 0;
    }
    if (++prices_stale > 200) {
      price(pert_cost_, d);
      prices_stale = 0;
    }

    // Leaving row: largest primal bound violation among basic variables,
    // the lowest row on ties (what a scan of all rows in order would pick).
    std::int32_t leave_row = -1;
    double worst = opts_.feas_tol;
    for (const std::int32_t i : infeasible_) {
      const double v = bound_violation(basic_[static_cast<std::size_t>(i)]);
      if (v > worst || (v == worst && i < leave_row)) {
        worst = v;
        leave_row = i;
      }
    }
    if (leave_row < 0) {
      obj_value_ = current_objective(cost_) + obj_constant_;
      return SolveStatus::Optimal;
    }

    const std::size_t r = static_cast<std::size_t>(leave_row);
    const std::int32_t kleave = basic_[r];
    const bool above = xval_[kleave] > ub_[kleave];
    const double e = above ? 1.0 : -1.0;

    {
      obs::Ring* const sp = sampled_ring();
      obs::Region btran_span(sp, obs::span_id(obs::SpanName::BtranRow));
      btran_row(r, rho);
      btran_span.stop();
      obs::Region price_span(sp, obs::span_id(obs::SpanName::PriceRow));
      price_row(rho, alphas, alpha_nz);
    }

    // Dual ratio test over the pivot row's nonzero columns (alphas stay
    // cached for the incremental reduced-cost update below).
    std::int32_t q = -1;
    double best_theta = kInf;
    double alpha_q = 0.0;
    for (const std::int32_t j32 : alpha_nz) {
      const std::size_t j = static_cast<std::size_t>(j32);
      if (status_[j] == ColStatus::Basic || is_fixed(j32)) continue;
      const double alpha = alphas[j];
      if (std::abs(alpha) <= opts_.pivot_tol) continue;
      const double abar = e * alpha;
      bool eligible = false;
      if (status_[j] == ColStatus::AtLower && abar > 0) eligible = true;
      else if (status_[j] == ColStatus::AtUpper && abar < 0) eligible = true;
      else if (status_[j] == ColStatus::Free) eligible = true;
      if (!eligible) continue;
      const double theta = std::abs(d[j]) / std::abs(abar);
      const bool better =
          theta < best_theta - 1e-12 ||
          (theta <= best_theta + 1e-12 && q >= 0 && std::abs(alpha) > std::abs(alpha_q));
      if (better) {
        best_theta = theta;
        q = j32;
        alpha_q = alpha;
      }
    }
    if (q < 0) return SolveStatus::Infeasible;  // dual unbounded

    {
      obs::Region ftran_span(sampled_ring(), obs::span_id(obs::SpanName::Ftran));
      ftran_entering(q, w, wnz);
    }
    if (std::abs(w[r]) < opts_.pivot_tol) {
      if (!refactorize(RefactorCause::SmallPivot)) return SolveStatus::NumericalError;
      compute_basic_values();
      rebuild_infeasible();
      continue;
    }
    if (opts_.fault != nullptr && opts_.fault->fire(FaultSite::NanPivot)) {
      return SolveStatus::NumericalError;  // injected poisoned pivot
    }

    // Entering step: drive the leaving basic variable exactly to its violated
    // bound. x_B(r) changes by -w[r] * delta.
    const double target = above ? ub_[kleave] : lb_[kleave];
    const double delta = (xval_[kleave] - target) / w[r];
    degen_streak = (std::abs(delta) <= kDegenTol) ? degen_streak + 1 : 0;
    ++reopt_stats_.total_pivots;
    if (std::abs(delta) <= kDegenTol) ++reopt_stats_.degen_pivots;
    if (degen_streak > 10 * opts_.bland_threshold) return SolveStatus::NumericalError;

    xval_[q] += delta;
    if (delta != 0.0) {
      for (const std::int32_t i : wnz) {
        xval_[static_cast<std::size_t>(basic_[i])] -= w[static_cast<std::size_t>(i)] * delta;
      }
    }

    // Incremental reduced-cost update from the cached pivot row.
    const double dq = d[static_cast<std::size_t>(q)];
    if (dq != 0.0) {
      const double ratio = dq / alpha_q;
      for (const std::int32_t j32 : alpha_nz) {
        const std::size_t j = static_cast<std::size_t>(j32);
        if (status_[j] == ColStatus::Basic || alphas[j] == 0.0) continue;
        d[j] -= ratio * alphas[j];
      }
      d[static_cast<std::size_t>(kleave)] = -ratio;  // leaving column (alpha = 1)
    } else {
      d[static_cast<std::size_t>(kleave)] = 0.0;
    }
    d[static_cast<std::size_t>(q)] = 0.0;
    pricer_->on_pivot(q, kleave, alpha_q, alphas, alpha_nz);

    status_[kleave] = above ? ColStatus::AtUpper : ColStatus::AtLower;
    xval_[kleave] = target;
    basis_pos_[kleave] = -1;
    basic_[r] = q;
    basis_pos_[q] = static_cast<std::int32_t>(r);
    status_[q] = ColStatus::Basic;
    update_factors(w, r, wnz);
    for (const std::int32_t i : wnz) track_infeasible(static_cast<std::size_t>(i));
    ++total_iterations_;
  }
}

void SimplexSolver::set_bounds(std::int32_t col, double lb, double ub) {
  assert(col >= 0 && static_cast<std::size_t>(col) < n_);
  true_lb_[col] = lb;
  true_ub_[col] = ub;
  lb_[col] = (lb > -kInf) ? lb - pert_[col] : lb;
  ub_[col] = (ub < kInf) ? ub + pert_[col] : ub;
  if (status_[col] == ColStatus::Basic) return;
  // Keep the nonbasic resting point consistent with the new bounds.
  if (status_[col] == ColStatus::AtLower) {
    if (lb > -kInf) {
      xval_[col] = lb;
    } else if (ub < kInf) {
      status_[col] = ColStatus::AtUpper;
      xval_[col] = ub;
    } else {
      status_[col] = ColStatus::Free;
      xval_[col] = 0.0;
    }
  } else if (status_[col] == ColStatus::AtUpper) {
    if (ub < kInf) {
      xval_[col] = ub;
    } else if (lb > -kInf) {
      status_[col] = ColStatus::AtLower;
      xval_[col] = lb;
    } else {
      status_[col] = ColStatus::Free;
      xval_[col] = 0.0;
    }
  }
}

std::vector<double> SimplexSolver::dual_values() const {
  std::vector<double> y(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    y[i] = cost_[static_cast<std::size_t>(basic_[i])];
  }
  rep_->btran(y);
  // cost_ is negated for Maximize models; flip back to the model's sense.
  if (maximize_) {
    for (double& v : y) v = -v;
  }
  return y;
}

std::vector<double> SimplexSolver::reduced_costs() const {
  price(cost_, scratch_d_);
  std::vector<double> d(scratch_d_.begin(),
                        scratch_d_.begin() + static_cast<std::ptrdiff_t>(n_));
  if (maximize_) {
    for (double& v : d) v = -v;
  }
  return d;
}

SimplexSolver::Basis SimplexSolver::export_basis() const {
  Basis b;
  b.status.resize(total_cols_);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    b.status[j] = static_cast<std::uint8_t>(status_[j]);
  }
  b.basic.assign(basic_.begin(), basic_.end());
  b.art_sign.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    b.art_sign[i] = art_val(i);
  }
  b.factor = rep_->snapshot();
  return b;
}

bool SimplexSolver::load_basis(const Basis& basis) {
  if (basis.status.size() != total_cols_ || basis.basic.size() != m_ ||
      basis.art_sign.size() != m_) {
    basis_valid_ = false;
    return false;
  }
  if (m_ == 0) {
    basis_valid_ = true;
    return true;
  }

  // Artificials: reinstall the exporter's matrix signs, frozen at zero (the
  // post-phase-1 state every exported basis was taken in).
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t a = n_ + m_ + i;
    art_val(i) = basis.art_sign[i];
    lb_[a] = true_lb_[a] = 0.0;
    ub_[a] = true_ub_[a] = 0.0;
  }

  std::fill(basis_pos_.begin(), basis_pos_.end(), -1);
  for (std::size_t j = 0; j < total_cols_; ++j) {
    status_[j] = static_cast<ColStatus>(basis.status[j]);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    const std::int32_t col = basis.basic[i];
    if (col < 0 || static_cast<std::size_t>(col) >= total_cols_ ||
        basis_pos_[col] >= 0) {
      basis_valid_ = false;
      return false;  // out of range or duplicated basic column
    }
    basic_[i] = col;
    basis_pos_[col] = static_cast<std::int32_t>(i);
    status_[col] = ColStatus::Basic;
  }

  // Nonbasic columns rest at a bound consistent with the *current* bounds
  // (which may differ from the exporter's: branching only changes bounds).
  for (std::size_t j = 0; j < total_cols_; ++j) {
    if (status_[j] == ColStatus::Basic) continue;
    if (status_[j] == ColStatus::AtLower && lb_[j] <= -kInf) {
      status_[j] = (ub_[j] < kInf) ? ColStatus::AtUpper : ColStatus::Free;
    } else if (status_[j] == ColStatus::AtUpper && ub_[j] >= kInf) {
      status_[j] = (lb_[j] > -kInf) ? ColStatus::AtLower : ColStatus::Free;
    }
    switch (status_[j]) {
      case ColStatus::AtLower: xval_[j] = lb_[j]; break;
      case ColStatus::AtUpper: xval_[j] = ub_[j]; break;
      default: xval_[j] = 0.0; break;
    }
  }

  // Adopt the exporter's factorization snapshot when the kernel supports
  // it — the transplant then costs an index rebuild instead of a full
  // refactorization. Fall back to refactorizing (checkpoint-resumed bases
  // and the dense kernel ship no snapshot).
  if (basis.factor != nullptr && rep_->adopt(basis.factor)) {
    ++reopt_stats_.transplants;
    pivots_since_refactor_ = basis.factor->update_count();
  } else if (!refactorize(RefactorCause::Load)) {
    basis_valid_ = false;
    return false;
  }
  compute_basic_values();
  basis_valid_ = true;
  return true;
}

SimplexSolver::BoundStatus SimplexSolver::column_status(std::int32_t col) const {
  switch (status_[static_cast<std::size_t>(col)]) {
    case ColStatus::Basic: return BoundStatus::Basic;
    case ColStatus::AtLower: return BoundStatus::AtLower;
    case ColStatus::AtUpper: return BoundStatus::AtUpper;
    case ColStatus::Free: return BoundStatus::Free;
  }
  return BoundStatus::Free;
}

std::vector<double> SimplexSolver::primal_solution() const {
  std::vector<double> x(xval_.begin(), xval_.begin() + static_cast<std::ptrdiff_t>(n_));
  // Clamp perturbation slack back into the true bounds.
  for (std::size_t j = 0; j < n_; ++j) {
    x[j] = std::clamp(x[j], true_lb_[j], true_ub_[j]);
  }
  return x;
}

Solution solve_lp_relaxation(const Model& model, SimplexOptions options) {
  // Like solve_milp, one solve_start / solve_end pair (one worker) brackets
  // the kernel records on the caller's ring.
  obs::Ring* const ring = options.ring;
  const bool started = ring != nullptr &&
                       ring->open(obs::EventType::SolveStart, -1, 1.0, obs::Clock::now());
  SimplexSolver lp(model, std::move(options));
  Solution sol;
  sol.status = lp.solve_primal();
  sol.term_reason = term_reason_from(sol.status);
  sol.simplex_iterations = lp.iterations();
  if (sol.status == SolveStatus::Optimal) {
    sol.x = lp.primal_solution();
    const double flip = model.objective_sense() == ObjectiveSense::Maximize ? -1.0 : 1.0;
    sol.objective = flip * lp.objective_value();
    sol.has_incumbent = true;
    sol.best_bound = sol.objective;
  }
  if (started) {
    ring->close(obs::EventType::SolveEnd, -1,
                sol.has_incumbent ? sol.objective : std::numeric_limits<double>::quiet_NaN(),
                obs::Clock::now());
  }
  return sol;
}

}  // namespace archex::milp
