#include "milp/basis_lu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace archex::milp {

namespace {

constexpr double kSingularTol = 1e-11;  // same floor as the dense Gauss-Jordan
constexpr int kMarkowitzCandidates = 4;  // columns examined per pivot step
// Solve results and spikes below this magnitude are cancellation residue:
// kept, they spread through every later solve and pricing pass.
constexpr double kTiny = 1e-14;

/// dst := src with entries below kTiny set to zero.
void copy_dropping_tiny(const std::vector<double>& src, std::vector<double>& dst) {
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::abs(src[i]) < kTiny ? 0.0 : src[i];
  }
}

// A Forrest–Tomlin update whose new diagonal strays further than this
// (relative) from w[r] * old diagonal marks the factors inaccurate.
constexpr double kFtAccuracyTol = 1e-8;

// ---------------------------------------------------------------------------
// Dense kernel: the original explicit inverse, moved behind BasisRep.
// ---------------------------------------------------------------------------

class DenseBasis final : public BasisRep {
 public:
  explicit DenseBasis(std::size_t m) : m_(m), binv_(m * m, 0.0), scratch_(m, 0.0) {}

  bool factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                 const std::vector<std::int32_t>& basic) override {
    // Gauss-Jordan inversion of the basis matrix with partial pivoting.
    std::vector<double> work(m_ * m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = static_cast<std::size_t>(basic[i]);
      for (std::int32_t t = col_start[j]; t < col_start[j + 1]; ++t) {
        const ColEntry& e = col_ent[t];
        work[static_cast<std::size_t>(e.row) * m_ + i] = e.val;
      }
    }
    std::vector<double>& inv = binv_;
    std::fill(inv.begin(), inv.end(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) inv[i * m_ + i] = 1.0;

    for (std::size_t k = 0; k < m_; ++k) {
      std::size_t piv = k;
      double best = std::abs(work[k * m_ + k]);
      for (std::size_t i = k + 1; i < m_; ++i) {
        const double v = std::abs(work[i * m_ + k]);
        if (v > best) { best = v; piv = i; }
      }
      if (best < kSingularTol) return false;  // singular basis
      if (piv != k) {
        // A row swap is just another elementary row operation: the
        // accumulated sequence R with R*B = I satisfies R = B^-1 exactly.
        for (std::size_t j = 0; j < m_; ++j) {
          std::swap(work[piv * m_ + j], work[k * m_ + j]);
          std::swap(inv[piv * m_ + j], inv[k * m_ + j]);
        }
      }
      const double d = 1.0 / work[k * m_ + k];
      for (std::size_t j = 0; j < m_; ++j) {
        work[k * m_ + j] *= d;
        inv[k * m_ + j] *= d;
      }
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == k) continue;
        const double f = work[i * m_ + k];
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < m_; ++j) {
          work[i * m_ + j] -= f * work[k * m_ + j];
          inv[i * m_ + j] -= f * inv[k * m_ + j];
        }
      }
    }
    return true;
  }

  void ftran(std::vector<double>& x) const override {
    std::vector<double>& y = scratch_;
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t k = 0; k < m_; ++k) {
      const double xk = x[k];
      if (xk == 0.0) continue;
      const double* bk = binv_.data() + k;  // column k of row-major Binv
      for (std::size_t i = 0; i < m_; ++i) y[i] += bk[i * m_] * xk;
    }
    std::copy(y.begin(), y.end(), x.begin());
  }

  void btran(std::vector<double>& x) const override {
    std::vector<double>& y = scratch_;
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double ci = x[i];
      if (ci == 0.0) continue;
      const double* row = binv_.data() + i * m_;
      for (std::size_t j = 0; j < m_; ++j) y[j] += ci * row[j];
    }
    std::copy(y.begin(), y.end(), x.begin());
  }

  void update(const std::vector<double>& w, std::size_t r,
              const std::vector<std::int32_t>& wnz) override {
    // Binv <- E * Binv with E the elementary matrix mapping w to e_r.
    const double piv = w[r];
    double* rowr = binv_.data() + r * m_;
    const double inv_piv = 1.0 / piv;
    for (std::size_t j = 0; j < m_; ++j) rowr[j] *= inv_piv;
    for (const std::int32_t i32 : wnz) {
      const std::size_t i = static_cast<std::size_t>(i32);
      if (i == r) continue;
      const double f = w[i];
      double* rowi = binv_.data() + i * m_;
      for (std::size_t j = 0; j < m_; ++j) rowi[j] -= f * rowr[j];
    }
  }

  [[nodiscard]] bool growth_exceeded() const override { return false; }
  [[nodiscard]] std::shared_ptr<const FactorState> snapshot() const override {
    return nullptr;
  }
  bool adopt(const std::shared_ptr<const FactorState>& /*state*/) override {
    return false;
  }
  [[nodiscard]] const char* name() const override { return "dense"; }

 private:
  std::size_t m_;
  std::vector<double> binv_;  ///< dense m x m, row-major
  mutable std::vector<double> scratch_;
};

// ---------------------------------------------------------------------------
// Sparse LU kernel.
// ---------------------------------------------------------------------------

class SparseLuBasis final : public BasisRep {
 public:
  SparseLuBasis(std::size_t m, double markowitz_tol, double eta_fill_factor)
      : m_(m),
        markowitz_tol_(markowitz_tol),
        eta_fill_factor_(eta_fill_factor),
        lu_(std::make_shared<const LuData>()),
        solve_scratch_(m, 0.0),
        spike_(m, 0.0),
        row_hit_(m, 0),
        eta_scratch_(m, 0.0),
        pos_scratch_(m + 1, 0.0) {}

  bool factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                 const std::vector<std::int32_t>& basic) override;
  void ftran(std::vector<double>& x) const override;
  void ftran_entering(std::vector<double>& x, std::vector<std::int32_t>& nz) override;
  void btran(std::vector<double>& x) const override;
  void btran_unit(std::size_t r, std::vector<double>& x) const override;
  void update(const std::vector<double>& w, std::size_t r,
              const std::vector<std::int32_t>& wnz) override;

  [[nodiscard]] bool growth_exceeded() const override {
    // Refactorize early once the updates' spikes and row etas outgrow the
    // factors (every solve pays for them), or an update lost accuracy.
    return ft_.inaccurate ||
           (ft_.count() > 0 &&
            static_cast<double>(ft_.nnz()) >
                eta_fill_factor_ * static_cast<double>(lu_->nnz()));
  }

  [[nodiscard]] std::shared_ptr<const FactorState> snapshot() const override {
    auto s = std::make_shared<FactorState>();
    s->lu = lu_;
    s->updates = ft_;
    return s;
  }

  bool adopt(const std::shared_ptr<const FactorState>& state) override {
    if (state == nullptr || state->lu == nullptr || state->lu->m != m_) {
      return false;
    }
    lu_ = state->lu;
    ft_ = state->updates;
    spike_valid_ = false;
    row_eta_pos_ = -1;
    index_slots();
    return true;
  }

  [[nodiscard]] const char* name() const override { return "sparse-lu"; }

 private:
  // U in pivot order is a run of slots: the factors' m slots (slot k =
  // pivot k), then one slot per update (slot m + u). A slot has a row, a
  // position, a diagonal and a column; it dies when an update re-pivots its
  // position. Entries an update superseded stay in the pooled storage:
  // a dead slot is skipped whole, a factor-row entry in a replaced column is
  // skipped by `col_replaced_`, and a spike entry on a row that later moved
  // is older than the row's `row_moved_at_`. Stale column entries
  // need no mark: ftran's back substitution only subtracts them from rows it
  // has already consumed.

  /// x := R_k ... R_1 L^-1 x on a row-indexed vector. Tracked (the
  /// entering column), every row it writes joins hit_rows_, so the spike
  /// copy visits those rows only.
  template <bool kTrack>
  void lower_solve(std::vector<double>& x) const;
  /// x := U^-1 x: row-indexed in, position-indexed out. With `nz`, the
  /// positions of the nonzero results are appended to it.
  void upper_solve(std::vector<double>& x, std::vector<std::int32_t>* nz) const;
  /// Lists row in hit_rows_ once.
  void hit(std::size_t row) const {
    if (row_hit_[row] != 0) return;
    row_hit_[row] = 1;
    hit_rows_.push_back(static_cast<std::int32_t>(row));
  }
  /// U^T z = x in scatter form, for the position-indexed x in pos_scratch_,
  /// zero on the slots before `first`: z[row] := x[pos] / diag for the live
  /// slots from `first` on in pivot order, subtracting each row of U times
  /// z[row] from the later slots' positions. Consumes x (left all zero) and
  /// writes only the nonzero z, so z must start zero on the swept slots'
  /// rows. With `nz`, lists (row, z) for the nonzero z in pivot order.
  void upper_t_solve(std::size_t first, double* z, std::vector<ColEntry>* nz) const;
  /// z := L^-T R_1^T ... R_k^T z, the rest of btran after the U^T solve.
  void btran_tail(std::vector<double>& z) const;
  /// x[position] -= t * U(row of slot s, position) over the row's live
  /// off-diagonal entries.
  void scatter_row(std::size_t s, double t, double* x) const;
  /// Registers update u in the slot index.
  void index_update(std::size_t u);
  /// Rebuilds the slot index from the factors and the update file.
  void index_slots();
  /// Markowitz elimination of the basis into fresh factors; false (factors
  /// unchanged) on a singular basis.
  bool eliminate(const std::int32_t* col_start, const ColEntry* col_ent,
                 const std::vector<std::int32_t>& basic);

  std::size_t m_;
  double markowitz_tol_;
  double eta_fill_factor_;
  std::shared_ptr<const LuData> lu_;
  FtFile ft_;

  // Slot index over lu_ + ft_ (rebuilt on factorize/adopt, extended per
  // update; never part of a snapshot).
  std::vector<std::uint8_t> dead_;          ///< per slot: factors' m, then updates
  std::vector<std::int32_t> slot_of_pos_;   ///< live slot of each basis position
  std::vector<std::uint8_t> col_replaced_;  ///< per position: factor column superseded
  /// Basis position of each factor slot, m once the slot is dead, so the
  /// U^T sweep reads the always-zero pos_scratch_[m] there instead of
  /// testing dead_.
  std::vector<std::int32_t> slot_pos_;
  /// The live factor slots with an empty U column, packed for the U solve's
  /// last pass; `unit_at_` is each factor slot's index here, -1 for others.
  struct UnitSlot {
    std::int32_t row;
    std::int32_t pos;
    double diag_inv;
  };
  std::vector<UnitSlot> units_;
  std::vector<std::int32_t> unit_at_;
  /// Spike entries by row, pooled: one list per row, newest update first.
  struct SpikeLink {
    std::int32_t update;
    std::int32_t next;  ///< -1 ends the list
    double val;
  };
  std::vector<SpikeLink> spike_links_;
  std::vector<std::int32_t> spike_head_;    ///< per row: first link, -1 none
  std::vector<std::int32_t> row_moved_at_;  ///< per row: update that last moved it, -1 none
  /// Calls f(update, value) for row's live spike entries: those newer than
  /// the row's last move, in columns no later update replaced.
  template <class F>
  void for_row_spikes(std::size_t row, F f) const {
    const std::int32_t moved = row_moved_at_[row];
    for (std::int32_t l = spike_head_[row]; l >= 0;) {
      const SpikeLink& e = spike_links_[static_cast<std::size_t>(l)];
      if (e.update <= moved) break;
      if (dead_[m_ + static_cast<std::size_t>(e.update)] == 0) {
        f(static_cast<std::size_t>(e.update), e.val);
      }
      l = e.next;
    }
  }

  mutable std::vector<double> solve_scratch_;  ///< U-solve / U^T-solve output
  std::vector<double> spike_;        ///< entering column after L and the row etas
  std::vector<std::int32_t> spike_nz_;  ///< rows where spike_ is nonzero
  mutable std::vector<std::int32_t> hit_rows_;  ///< rows a tracked solve wrote
  mutable std::vector<std::uint8_t> row_hit_;   ///< per row: in hit_rows_ (zero between solves)
  bool spike_valid_ = false;         ///< spike_ belongs to the current factors
  std::vector<double> eta_scratch_;  ///< row-indexed sink of update()'s U^T solve
  /// Nonzeros of U^-T e_r in pivot order (the next update's row eta up to a
  /// factor) and the position r they belong to, -1 when stale: the simplex
  /// pivots on the row it has just btran'd, so update() finds them ready.
  mutable std::vector<ColEntry> row_eta_;
  mutable std::int32_t row_eta_pos_ = -1;
  /// Position-indexed right-hand side of the U^T solves, one entry past m
  /// that stays zero (see slot_pos_); all zero between solves.
  mutable std::vector<double> pos_scratch_;

  // Factorization workspace (reused across refactorizations).
  std::vector<std::vector<ColEntry>> wcols_;      ///< working columns (active rows)
  std::vector<std::vector<std::int32_t>> rpat_;   ///< positions per row (may go stale)
  std::vector<std::int32_t> row_count_;           ///< approximate active row counts
  std::vector<double> wval_;                      ///< dense scatter values
  std::vector<std::int32_t> wstamp_;              ///< scatter marks
  std::int32_t stamp_ = 0;

  // Count-bucket lists over the active columns: bucket c chains the
  // positions whose working column currently holds c entries, so the
  // Markowitz search finds minimum-count candidates without scanning every
  // position per pivot step (the scan cost used to dominate factorize).
  std::vector<std::int32_t> bkt_head_;  ///< size m+1, head per count, -1 empty
  std::vector<std::int32_t> bkt_next_;
  std::vector<std::int32_t> bkt_prev_;
  std::vector<std::int32_t> bkt_cnt_;   ///< bucket a position is linked into

  void bkt_unlink(std::int32_t pos) {
    const std::int32_t nx = bkt_next_[static_cast<std::size_t>(pos)];
    const std::int32_t pv = bkt_prev_[static_cast<std::size_t>(pos)];
    if (pv >= 0) {
      bkt_next_[static_cast<std::size_t>(pv)] = nx;
    } else {
      bkt_head_[static_cast<std::size_t>(bkt_cnt_[static_cast<std::size_t>(pos)])] = nx;
    }
    if (nx >= 0) bkt_prev_[static_cast<std::size_t>(nx)] = pv;
  }
  void bkt_link(std::int32_t pos, std::int32_t c) {
    bkt_cnt_[static_cast<std::size_t>(pos)] = c;
    bkt_prev_[static_cast<std::size_t>(pos)] = -1;
    const std::int32_t h = bkt_head_[static_cast<std::size_t>(c)];
    bkt_next_[static_cast<std::size_t>(pos)] = h;
    if (h >= 0) bkt_prev_[static_cast<std::size_t>(h)] = pos;
    bkt_head_[static_cast<std::size_t>(c)] = pos;
  }
};

bool SparseLuBasis::factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                              const std::vector<std::int32_t>& basic) {
  ft_.clear();
  spike_valid_ = false;
  row_eta_pos_ = -1;
  const bool ok = eliminate(col_start, col_ent, basic);
  index_slots();  // a failed elimination keeps the previous factors
  return ok;
}

bool SparseLuBasis::eliminate(const std::int32_t* col_start, const ColEntry* col_ent,
                              const std::vector<std::int32_t>& basic) {
  auto lu = std::make_shared<LuData>();
  lu->m = m_;
  if (m_ == 0) {
    lu_ = std::move(lu);
    return true;
  }
  // Size the fresh factor arrays off the previous factorization so the
  // push_back growth below rarely reallocates mid-elimination.
  lu->l_ent.reserve(lu_->l_ent.size() + 16);
  lu->ur_ent.reserve(lu_->ur_ent.size() + 16);

  // Working copy of the basis matrix, column-wise by basis position, plus a
  // row-wise pattern of positions. Invariant: wcols_ holds exactly the
  // entries over still-active (unpivoted) rows; rpat_ may carry stale
  // positions (cancellations leave them behind), detected via the scatter.
  // clear() instead of assign() keeps each inner vector's capacity across
  // refactorizations — the fill pattern barely changes between them.
  if (wcols_.size() != m_) {
    wcols_.resize(m_);
    rpat_.resize(m_);
  }
  for (auto& wc : wcols_) wc.clear();
  for (auto& rp : rpat_) rp.clear();
  row_count_.assign(m_, 0);
  for (std::size_t pos = 0; pos < m_; ++pos) {
    const std::size_t j = static_cast<std::size_t>(basic[pos]);
    auto& wc = wcols_[pos];
    wc.reserve(static_cast<std::size_t>(col_start[j + 1] - col_start[j]));
    for (std::int32_t t = col_start[j]; t < col_start[j + 1]; ++t) {
      const ColEntry& e = col_ent[t];
      if (e.val == 0.0) continue;
      wc.push_back(e);
      rpat_[static_cast<std::size_t>(e.row)].push_back(static_cast<std::int32_t>(pos));
      ++row_count_[static_cast<std::size_t>(e.row)];
    }
  }
  if (wval_.size() != m_) {
    wval_.assign(m_, 0.0);
    wstamp_.assign(m_, 0);
    stamp_ = 0;
  }
  bkt_head_.assign(m_ + 1, -1);
  bkt_next_.assign(m_, -1);
  bkt_prev_.assign(m_, -1);
  bkt_cnt_.assign(m_, 0);
  for (std::size_t pos = 0; pos < m_; ++pos) {
    bkt_link(static_cast<std::int32_t>(pos),
             static_cast<std::int32_t>(wcols_[pos].size()));
  }

  std::vector<char> pos_done(m_, 0);
  lu->piv.resize(m_);
  lu->ur_start.assign(1, 0);

  std::vector<std::int32_t> lrows;
  std::vector<double> lvals;
  std::vector<std::int32_t> fills;

  for (std::size_t k = 0; k < m_; ++k) {
    // --- Markowitz pivot search with threshold partial pivoting ---
    // The count buckets hand over the minimum-count columns directly;
    // examine a few of them, and within a column only entries within
    // markowitz_tol of the column max are acceptable (stability), the
    // lowest (r-1)(c-1) fill bound among acceptable entries winning.
    std::size_t minc = 0;
    while (minc <= m_ && bkt_head_[minc] < 0) ++minc;
    if (minc == 0 || minc > m_) {
      return false;  // an active position has an empty column: singular
    }

    std::int32_t best_pos = -1;
    std::int32_t best_row = -1;
    double best_val = 0.0;
    long best_cost = std::numeric_limits<long>::max();
    auto consider = [&](std::int32_t pos) {
      const auto& wc = wcols_[static_cast<std::size_t>(pos)];
      double cmax = 0.0;
      for (const ColEntry& e : wc) cmax = std::max(cmax, std::abs(e.val));
      if (cmax < kSingularTol) return;  // unpivotable for now
      const double accept = markowitz_tol_ * cmax;
      for (const ColEntry& e : wc) {
        const double av = std::abs(e.val);
        if (av < accept) continue;
        const long cost =
            static_cast<long>(row_count_[static_cast<std::size_t>(e.row)] - 1) *
            static_cast<long>(wc.size() - 1);
        if (cost < best_cost ||
            (cost == best_cost && av > std::abs(best_val))) {
          best_cost = cost;
          best_pos = pos;
          best_row = e.row;
          best_val = e.val;
        }
      }
    };
    int examined = 0;
    for (std::int32_t p = bkt_head_[minc];
         p >= 0 && examined < kMarkowitzCandidates;
         p = bkt_next_[static_cast<std::size_t>(p)], ++examined) {
      consider(p);
    }
    if (best_pos < 0) {
      // None of the sampled min-count columns is acceptable: fall back to
      // every active column, in ascending count order.
      for (std::size_t c = 1; c <= m_ && best_pos < 0; ++c) {
        for (std::int32_t p = bkt_head_[c]; p >= 0;
             p = bkt_next_[static_cast<std::size_t>(p)]) {
          consider(p);
        }
      }
    }
    if (best_pos < 0) return false;  // no acceptable pivot anywhere: singular

    const std::size_t ppos = static_cast<std::size_t>(best_pos);
    const std::size_t prow = static_cast<std::size_t>(best_row);
    const double pval = best_val;

    // L column: the other entries of the pivot column, divided by the pivot.
    lrows.clear();
    lvals.clear();
    for (const ColEntry& e : wcols_[ppos]) {
      if (static_cast<std::size_t>(e.row) == prow) continue;
      lrows.push_back(e.row);
      lvals.push_back(e.val / pval);
      --row_count_[static_cast<std::size_t>(e.row)];  // loses its ppos entry
    }

    // Eliminate the pivot row from every other column that carries it.
    for (const std::int32_t q32 : rpat_[prow]) {
      const std::size_t q = static_cast<std::size_t>(q32);
      if (pos_done[q] || q == ppos) continue;
      auto& wc = wcols_[q];
      if (lrows.empty()) {
        // A column-singleton pivot (slack-like, most of a simplex basis)
        // creates no fill: the pivot row's entry just moves to U.
        const auto at = std::find_if(wc.begin(), wc.end(), [&](const ColEntry& e) {
          return static_cast<std::size_t>(e.row) == prow;
        });
        if (at == wc.end()) continue;  // stale pattern entry: skip
        lu->ur_ent.push_back({q32, at->val});
        wc.erase(at);
        bkt_unlink(q32);
        bkt_link(q32, static_cast<std::int32_t>(wc.size()));
        continue;
      }
      ++stamp_;
      for (const ColEntry& e : wc) {
        wval_[static_cast<std::size_t>(e.row)] = e.val;
        wstamp_[static_cast<std::size_t>(e.row)] = stamp_;
      }
      if (wstamp_[prow] != stamp_) continue;  // stale pattern entry: skip
      const double uq = wval_[prow];
      lu->ur_ent.push_back({q32, uq});
      fills.clear();
      for (std::size_t t = 0; t < lrows.size(); ++t) {
        const std::size_t i = static_cast<std::size_t>(lrows[t]);
        const double delta = lvals[t] * uq;
        if (wstamp_[i] == stamp_) {
          wval_[i] -= delta;
        } else {
          wval_[i] = -delta;
          wstamp_[i] = stamp_;
          fills.push_back(lrows[t]);
        }
      }
      // Gather the updated column: surviving old entries (minus the pivot
      // row and exact cancellations) plus fill-in.
      std::size_t out = 0;
      for (std::size_t t = 0; t < wc.size(); ++t) {
        const std::size_t i = static_cast<std::size_t>(wc[t].row);
        if (i == prow) continue;
        const double v = wval_[i];
        if (v == 0.0) {
          --row_count_[i];  // cancelled; rpat_ keeps a stale entry
          continue;
        }
        wc[out++] = {wc[t].row, v};
      }
      wc.resize(out);
      for (const std::int32_t f : fills) {
        const std::size_t i = static_cast<std::size_t>(f);
        if (wval_[i] == 0.0) continue;
        wc.push_back({f, wval_[i]});
        rpat_[i].push_back(q32);
        ++row_count_[i];
      }
      bkt_unlink(q32);
      bkt_link(q32, static_cast<std::int32_t>(wc.size()));
    }

    // Retire the pivot.
    lu->piv[k] = {static_cast<std::int32_t>(prow), static_cast<std::int32_t>(ppos), pval,
                  1.0 / pval};
    if (!lrows.empty()) {
      lu->l_row.push_back(static_cast<std::int32_t>(prow));
      for (std::size_t t = 0; t < lrows.size(); ++t) {
        lu->l_ent.push_back({lrows[t], lvals[t]});
      }
      lu->l_start.push_back(static_cast<std::int32_t>(lu->l_ent.size()));
    }
    lu->ur_start.push_back(static_cast<std::int32_t>(lu->ur_ent.size()));
    pos_done[ppos] = 1;
    bkt_unlink(best_pos);
    wcols_[ppos].clear();
    rpat_[prow].clear();
  }

  // The column-wise copy of U: row k's entry at position q goes to the
  // column of q's pivot as (pivot row of k, value).
  std::vector<std::int32_t>& pivot_of_pos = row_count_;  // free after elimination
  for (std::size_t k = 0; k < m_; ++k) {
    pivot_of_pos[static_cast<std::size_t>(lu->piv[k].pos)] = static_cast<std::int32_t>(k);
  }
  lu->u_start.assign(m_ + 1, 0);
  for (const ColEntry& e : lu->ur_ent) {
    ++lu->u_start[static_cast<std::size_t>(pivot_of_pos[static_cast<std::size_t>(e.row)]) + 1];
  }
  for (std::size_t k = 0; k < m_; ++k) lu->u_start[k + 1] += lu->u_start[k];
  lu->u_ent.resize(lu->ur_ent.size());
  std::vector<std::int32_t> fill_at(lu->u_start.begin(), lu->u_start.end() - 1);
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::int32_t t = lu->ur_start[k]; t < lu->ur_start[k + 1]; ++t) {
      const ColEntry& e = lu->ur_ent[static_cast<std::size_t>(t)];
      const auto col = static_cast<std::size_t>(pivot_of_pos[static_cast<std::size_t>(e.row)]);
      lu->u_ent[static_cast<std::size_t>(fill_at[col]++)] = {lu->piv[k].row, e.val};
    }
  }

  for (std::size_t k = 0; k < m_; ++k) {
    if (lu->u_start[k] < lu->u_start[k + 1]) lu->u_cols.push_back(static_cast<std::int32_t>(k));
  }

  lu_ = std::move(lu);
  return true;
}

void SparseLuBasis::index_update(std::size_t u) {
  const auto r = static_cast<std::size_t>(ft_.pos[u]);
  const auto old = static_cast<std::size_t>(slot_of_pos_[r]);
  dead_[old] = 1;
  if (old < m_) slot_pos_[old] = static_cast<std::int32_t>(m_);
  if (old < m_ && unit_at_[old] >= 0) {
    const std::int32_t at = unit_at_[old];
    const UnitSlot last = units_.back();
    units_[static_cast<std::size_t>(at)] = last;
    unit_at_[static_cast<std::size_t>(slot_of_pos_[static_cast<std::size_t>(last.pos)])] = at;
    units_.pop_back();
    unit_at_[old] = -1;
  }
  slot_of_pos_[r] = static_cast<std::int32_t>(m_ + u);
  col_replaced_[r] = 1;
  // The row moved past every earlier spike: its entries there are gone.
  const auto row = static_cast<std::size_t>(ft_.row[u]);
  row_moved_at_[row] = static_cast<std::int32_t>(u);
  for (std::int32_t t = ft_.col_start[u]; t < ft_.col_start[u + 1]; ++t) {
    const ColEntry& e = ft_.col_ent[static_cast<std::size_t>(t)];
    const auto i = static_cast<std::size_t>(e.row);
    spike_links_.push_back({static_cast<std::int32_t>(u), spike_head_[i], e.val});
    spike_head_[i] = static_cast<std::int32_t>(spike_links_.size() - 1);
  }
}

void SparseLuBasis::index_slots() {
  const LuData& lu = *lu_;
  dead_.assign(m_ + ft_.pos.size(), 0);
  slot_of_pos_.resize(m_);
  slot_pos_.resize(m_);
  units_.clear();
  unit_at_.assign(m_, -1);
  for (std::size_t k = 0; k < lu.piv.size(); ++k) {
    slot_of_pos_[static_cast<std::size_t>(lu.piv[k].pos)] = static_cast<std::int32_t>(k);
    slot_pos_[k] = lu.piv[k].pos;
    if (lu.u_start[k] < lu.u_start[k + 1]) continue;
    unit_at_[k] = static_cast<std::int32_t>(units_.size());
    units_.push_back({lu.piv[k].row, lu.piv[k].pos, lu.piv[k].diag_inv});
  }
  col_replaced_.assign(m_, 0);
  spike_links_.clear();
  spike_head_.assign(m_, -1);
  row_moved_at_.assign(m_, -1);
  for (std::size_t u = 0; u < ft_.pos.size(); ++u) index_update(u);
}

template <bool kTrack>
void SparseLuBasis::lower_solve(std::vector<double>& x) const {
  const LuData& lu = *lu_;
  // L etas in pivot order.
  for (std::size_t j = 0; j < lu.l_row.size(); ++j) {
    const double xk = x[static_cast<std::size_t>(lu.l_row[j])];
    if (xk == 0.0) continue;
    for (std::int32_t t = lu.l_start[j]; t < lu.l_start[j + 1]; ++t) {
      const ColEntry& en = lu.l_ent[static_cast<std::size_t>(t)];
      x[static_cast<std::size_t>(en.row)] -= en.val * xk;
      if constexpr (kTrack) hit(static_cast<std::size_t>(en.row));
    }
  }
  // Row etas, oldest first.
  for (std::size_t u = 0; u < ft_.pos.size(); ++u) {
    double s = 0.0;
    for (std::int32_t t = ft_.eta_start[u]; t < ft_.eta_start[u + 1]; ++t) {
      const ColEntry& en = ft_.eta_ent[static_cast<std::size_t>(t)];
      s += en.val * x[static_cast<std::size_t>(en.row)];
    }
    const auto row = static_cast<std::size_t>(ft_.row[u]);
    x[row] += s;
    if constexpr (kTrack) {
      if (s != 0.0) hit(row);
    }
  }
}

void SparseLuBasis::upper_solve(std::vector<double>& x, std::vector<std::int32_t>* nz) const {
  // Back substitution in scatter form over the columns, last slot first.
  const LuData& lu = *lu_;
  std::vector<double>& y = solve_scratch_;
  std::fill(y.begin(), y.end(), 0.0);  // only nonzero results are written below
  auto solve = [&](std::size_t pos, double v, const ColEntry* col, const ColEntry* col_end) {
    y[pos] = v;
    if (nz != nullptr && std::abs(v) >= kTiny) nz->push_back(static_cast<std::int32_t>(pos));
    for (; col != col_end; ++col) x[static_cast<std::size_t>(col->row)] -= col->val * v;
  };
  for (std::size_t u = ft_.pos.size(); u-- > 0;) {
    const double xr = x[static_cast<std::size_t>(ft_.row[u])];
    if (xr == 0.0 || dead_[m_ + u] != 0) continue;
    solve(static_cast<std::size_t>(ft_.pos[u]), xr * ft_.diag_inv[u],
          ft_.col_ent.data() + ft_.col_start[u], ft_.col_ent.data() + ft_.col_start[u + 1]);
  }
  for (std::size_t c = lu.u_cols.size(); c-- > 0;) {
    const auto k = static_cast<std::size_t>(lu.u_cols[c]);
    const LuData::Pivot& pv = lu.piv[k];
    const double xr = x[static_cast<std::size_t>(pv.row)];
    if (xr == 0.0 || dead_[k] != 0) continue;  // most columns: nothing reaches them
    solve(static_cast<std::size_t>(pv.pos), xr * pv.diag_inv, lu.u_ent.data() + lu.u_start[k],
          lu.u_ent.data() + lu.u_start[k + 1]);
  }
  // Empty columns subtract nothing, and no earlier column reaches their
  // rows: their values are final once every longer column is done. Their
  // nonzeros are listed branch-free (most are zero, unpredictably).
  std::size_t listed = 0;
  if (nz != nullptr) {
    listed = nz->size();
    nz->resize(listed + units_.size());
  }
  for (const UnitSlot& e : units_) {
    const double v = x[static_cast<std::size_t>(e.row)] * e.diag_inv;
    y[static_cast<std::size_t>(e.pos)] = v;
    if (nz != nullptr) {
      (*nz)[listed] = e.pos;
      listed += std::abs(v) >= kTiny ? 1 : 0;
    }
  }
  if (nz != nullptr) nz->resize(listed);
  copy_dropping_tiny(y, x);
}

void SparseLuBasis::scatter_row(std::size_t s, double t, double* x) const {
  const LuData& lu = *lu_;
  std::size_t row;
  if (s < m_) {
    for (std::int32_t e = lu.ur_start[s]; e < lu.ur_start[s + 1]; ++e) {
      const ColEntry& en = lu.ur_ent[static_cast<std::size_t>(e)];
      if (col_replaced_[static_cast<std::size_t>(en.row)] == 0) {
        x[en.row] -= en.val * t;
      }
    }
    row = static_cast<std::size_t>(lu.piv[s].row);
  } else {
    row = static_cast<std::size_t>(ft_.row[s - m_]);
  }
  for_row_spikes(row, [&](std::size_t u, double val) { x[ft_.pos[u]] -= val * t; });
}

void SparseLuBasis::upper_t_solve(std::size_t first, double* z,
                                  std::vector<ColEntry>* nz) const {
  const LuData& lu = *lu_;
  double* const x = pos_scratch_.data();
  auto solve = [&](std::size_t s, std::size_t pos, std::size_t row, double diag_inv) {
    const double xs = x[pos];
    if (xs == 0.0) return;
    x[pos] = 0.0;
    const double t = xs * diag_inv;
    z[row] = t;
    if (nz != nullptr) nz->push_back({static_cast<std::int32_t>(row), t});
    scatter_row(s, t, x);
  };
  for (std::size_t k = first; k < m_; ++k) {
    const auto pos = static_cast<std::size_t>(slot_pos_[k]);
    if (x[pos] == 0.0) continue;  // most slots: nothing reaches them
    solve(k, pos, static_cast<std::size_t>(lu.piv[k].row), lu.piv[k].diag_inv);
  }
  for (std::size_t u = first > m_ ? first - m_ : 0; u < ft_.pos.size(); ++u) {
    if (dead_[m_ + u] != 0) continue;
    solve(m_ + u, static_cast<std::size_t>(ft_.pos[u]),
          static_cast<std::size_t>(ft_.row[u]), ft_.diag_inv[u]);
  }
}

void SparseLuBasis::ftran(std::vector<double>& x) const {
  lower_solve<false>(x);
  upper_solve(x, nullptr);
}

void SparseLuBasis::ftran_entering(std::vector<double>& x, std::vector<std::int32_t>& nz) {
  hit_rows_.clear();
  for (const std::int32_t i : nz) hit(static_cast<std::size_t>(i));
  lower_solve<true>(x);
  for (const std::int32_t i : spike_nz_) spike_[static_cast<std::size_t>(i)] = 0.0;
  spike_nz_.clear();
  for (const std::int32_t i : hit_rows_) {
    const double v = x[static_cast<std::size_t>(i)];
    if (std::abs(v) < kTiny) continue;
    spike_[static_cast<std::size_t>(i)] = v;
    spike_nz_.push_back(i);
  }
  spike_valid_ = true;
  nz.clear();
  upper_solve(x, &nz);
  for (const std::int32_t i : hit_rows_) row_hit_[static_cast<std::size_t>(i)] = 0;
}

void SparseLuBasis::btran_tail(std::vector<double>& z) const {
  // Row eta transposes, newest first.
  for (std::size_t u = ft_.pos.size(); u-- > 0;) {
    const double t = z[static_cast<std::size_t>(ft_.row[u])];
    if (t == 0.0) continue;
    for (std::int32_t e = ft_.eta_start[u]; e < ft_.eta_start[u + 1]; ++e) {
      const ColEntry& en = ft_.eta_ent[static_cast<std::size_t>(e)];
      z[static_cast<std::size_t>(en.row)] += en.val * t;
    }
  }
  // L^T, last eta first, in place: an eta's entries sit on rows it
  // eliminates, which later etas have already finished.
  const LuData& lu = *lu_;
  for (std::size_t j = lu.l_row.size(); j-- > 0;) {
    double s = 0.0;
    for (std::int32_t t = lu.l_start[j]; t < lu.l_start[j + 1]; ++t) {
      const ColEntry& en = lu.l_ent[static_cast<std::size_t>(t)];
      s += en.val * z[static_cast<std::size_t>(en.row)];
    }
    z[static_cast<std::size_t>(lu.l_row[j])] -= s;
  }
}

void SparseLuBasis::btran(std::vector<double>& x) const {
  std::vector<double>& z = solve_scratch_;
  std::fill(z.begin(), z.end(), 0.0);
  std::copy(x.begin(), x.end(), pos_scratch_.begin());
  upper_t_solve(0, z.data(), nullptr);
  btran_tail(z);
  copy_dropping_tiny(z, x);
}

void SparseLuBasis::btran_unit(std::size_t r, std::vector<double>& x) const {
  std::fill(x.begin(), x.end(), 0.0);
  // Slots before r's come out zero: the sweep starts at r's.
  pos_scratch_[r] = 1.0;
  row_eta_.clear();
  upper_t_solve(static_cast<std::size_t>(slot_of_pos_[r]), x.data(), &row_eta_);
  row_eta_pos_ = static_cast<std::int32_t>(r);
  btran_tail(x);
  for (double& v : x) v = std::abs(v) < kTiny ? 0.0 : v;
}

void SparseLuBasis::update(const std::vector<double>& w, std::size_t r,
                           const std::vector<std::int32_t>& /*wnz*/) {
  assert(spike_valid_ && "update() needs the entering column's ftran_entering()");
  if (!spike_valid_) {
    ft_.inaccurate = true;  // no spike to install: force a refactorization
    return;
  }
  spike_valid_ = false;
  const auto p = static_cast<std::size_t>(slot_of_pos_[r]);
  const LuData& lu = *lu_;
  const auto prow = static_cast<std::size_t>(p < m_ ? lu.piv[p].row : ft_.row[p - m_]);
  const double pdiag = p < m_ ? lu.piv[p].diag : ft_.diag[p - m_];

  // Row eta: the multipliers v with v[prow] = 1 and v^T U zero past slot
  // p, i.e. U^T v = pdiag * e_r, whose solve starts at slot p. Unless
  // btran_unit(r) left it, solve it here.
  if (row_eta_pos_ != static_cast<std::int32_t>(r)) {
    pos_scratch_[r] = 1.0;
    row_eta_.clear();
    upper_t_solve(p, eta_scratch_.data(), &row_eta_);
  }
  row_eta_pos_ = -1;
  // The eliminated row's new diagonal is the row eta applied to the spike;
  // it must equal w[r] times the old diagonal up to round-off.
  double diag = spike_[prow];
  for (std::size_t j = 1; j < row_eta_.size(); ++j) {  // row_eta_[0] is prow's
    const double vi = pdiag * row_eta_[j].val;
    if (vi == 0.0) continue;
    ft_.eta_ent.push_back({row_eta_[j].row, vi});
    diag += vi * spike_[static_cast<std::size_t>(row_eta_[j].row)];
  }
  const double expected = w[r] * pdiag;
  if (!(std::abs(diag - expected) <= kFtAccuracyTol * std::abs(expected))) {
    ft_.inaccurate = true;
    if (!(std::abs(diag) >= kSingularTol)) diag = expected;
  }

  // The spike replaces position r's column and moves with row prow to the
  // end of the pivot order; the old slot dies.
  for (const std::int32_t i : spike_nz_) {
    if (static_cast<std::size_t>(i) != prow) {
      ft_.col_ent.push_back({i, spike_[static_cast<std::size_t>(i)]});
    }
  }
  ft_.pos.push_back(static_cast<std::int32_t>(r));
  ft_.row.push_back(static_cast<std::int32_t>(prow));
  ft_.diag.push_back(diag);
  ft_.diag_inv.push_back(1.0 / diag);
  ft_.col_start.push_back(static_cast<std::int32_t>(ft_.col_ent.size()));
  ft_.eta_start.push_back(static_cast<std::int32_t>(ft_.eta_ent.size()));
  dead_.push_back(0);
  index_update(ft_.pos.size() - 1);
}

}  // namespace

std::unique_ptr<BasisRep> make_basis_rep(BasisKernel kernel, std::size_t m,
                                         double markowitz_tol,
                                         double eta_fill_factor) {
  if (kernel == BasisKernel::Dense) return std::make_unique<DenseBasis>(m);
  return std::make_unique<SparseLuBasis>(m, markowitz_tol, eta_fill_factor);
}

}  // namespace archex::milp
