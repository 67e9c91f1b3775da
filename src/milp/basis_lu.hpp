/// \file basis_lu.hpp
/// Basis-representation kernels for the bounded-variable revised simplex.
///
/// The simplex loops only ever touch the basis matrix B through four
/// operations: ftran (x := B^-1 x), btran (x := B^-T x), an update after a
/// pivot, and a full refactorization. `BasisRep` narrows the kernel to
/// exactly that surface so the solver can swap representations:
///
///   * `SparseLuBasis` (default) — sparse LU factorization with
///     Markowitz-style pivot selection under threshold partial pivoting,
///     kept current between refactorizations by Forrest–Tomlin updates: the
///     entering column's spike L^-1 a_q replaces the leaving column of U,
///     one short row eta eliminates the leaving row, and that column moves
///     to the end of the pivot order. ftran/btran touch nnz(L) + nnz(U) plus
///     the row etas, which is what makes 1k-5k row models tractable.
///   * `DenseBasis` — the original explicit dense inverse (Gauss-Jordan
///     refactorization, rank-1 product-form updates). O(m^2) per pivot;
///     kept as the cross-check oracle and for tiny models.
///
/// A sparse-LU kernel can additionally snapshot its factorization into an
/// immutable `FactorState` (shared LU + copied update file). The parallel
/// branch & bound ships these snapshots with exported bases so that loading
/// a transplanted basis replays its updates instead of refactorizing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

namespace archex::milp {

/// One entry of a sparse column: row (or basis-position) index plus value.
struct ColEntry {
  std::int32_t row;
  double val;
};

/// Which basis kernel a SimplexSolver instantiates (SimplexOptions::kernel).
enum class BasisKernel : std::uint8_t { SparseLu, Dense };

/// Sparse LU factors of a basis matrix B as a refactorization leaves them:
/// B = L * U up to the row and position permutations folded into the pivot
/// order. Immutable once built; shared by snapshots across threads.
struct LuData {
  std::size_t m = 0;
  /// Pivot k: its original row, basis position and value (with the
  /// reciprocal, so the solves multiply), side by side for the solves.
  struct Pivot {
    std::int32_t row;
    std::int32_t pos;
    double diag;
    double diag_inv;
  };
  std::vector<Pivot> piv;
  /// L as elementary column etas in pivot order, empty ones left out (on
  /// simplex bases L is nearly the identity): eta j eliminates below pivot
  /// row `l_row[j]` with the (original row, multiplier) entries
  /// `l_ent[l_start[j] .. l_start[j+1])`.
  std::vector<std::int32_t> l_row;
  std::vector<std::int32_t> l_start{0};  ///< size l_row.size()+1
  std::vector<ColEntry> l_ent;
  /// U, column per pivot k (diagonal split out): entries are (original
  /// row, value) over rows pivoted before k.
  std::vector<std::int32_t> u_start{0};  ///< size m+1
  std::vector<ColEntry> u_ent;
  /// The same U, row per pivot k: entries are (basis position, value) over
  /// positions pivoted after k.
  std::vector<std::int32_t> ur_start{0};  ///< size m+1
  std::vector<ColEntry> ur_ent;
  /// Pivots whose U column has off-diagonal entries, ascending. The rest
  /// (most of a simplex basis: slack-like columns) only scale their row at
  /// the end of a U solve, so the back substitution sweeps just these.
  std::vector<std::int32_t> u_cols;

  /// Nonzeros of L and U (U counted once).
  [[nodiscard]] std::size_t nnz() const { return l_ent.size() + u_ent.size() + m; }
};

/// Forrest–Tomlin updates since the last refactorization, in pooled (flat)
/// storage. Update k re-pivoted basis position `pos[k]`: its U column, now
/// `col_ent[col_start[k] .. col_start[k+1])` (original row, value) with
/// diagonal `diag[k]`, sits with row `row[k]` at the end of the pivot order,
/// and its row eta `x[row[k]] += sum(v * x[i])` over the (row i, v) entries
/// `eta_ent[eta_start[k] .. eta_start[k+1])` runs after L in ftran. The U
/// column and row the update superseded stay in place; the solves skip
/// them (see SparseLuBasis). Appending never allocates per update once the
/// pooled arrays have grown, and their capacity survives refactorizations.
struct FtFile {
  std::vector<std::int32_t> pos;
  std::vector<std::int32_t> row;
  std::vector<double> diag;
  std::vector<double> diag_inv;
  std::vector<std::int32_t> col_start{0};  ///< size count()+1
  std::vector<ColEntry> col_ent;
  std::vector<std::int32_t> eta_start{0};  ///< size count()+1
  std::vector<ColEntry> eta_ent;
  /// An update's new diagonal disagreed with w[r] * (old diagonal) beyond
  /// round-off: the factors have lost accuracy and want refactorizing.
  bool inaccurate = false;

  [[nodiscard]] int count() const { return static_cast<int>(pos.size()); }
  [[nodiscard]] std::size_t nnz() const { return col_ent.size() + eta_ent.size(); }
  void clear() {
    pos.clear();
    row.clear();
    diag.clear();
    diag_inv.clear();
    col_start.assign(1, 0);
    col_ent.clear();
    eta_start.assign(1, 0);
    eta_ent.clear();
    inaccurate = false;
  }
};

/// Immutable snapshot of a sparse-LU kernel's factorization state: the
/// (shared, never mutated) LU factors plus a copy of the update file at
/// export time. Safe to hand across threads; adopting it replays the
/// updates' pivot-order moves instead of refactorizing.
struct FactorState {
  std::shared_ptr<const LuData> lu;
  FtFile updates;

  [[nodiscard]] int update_count() const { return updates.count(); }
};

/// Abstract basis representation. Vectors are dense (length m); sparsity is
/// exploited internally by skipping zeros. "Row-indexed" means indexed by
/// original constraint row, "position-indexed" by basis position (the row of
/// `basic_` the column occupies).
class BasisRep {
 public:
  virtual ~BasisRep() = default;

  /// Rebuilds the factorization of B whose column j is the slice
  /// `col_ent[col_start[basic[j]] .. col_start[basic[j]+1])` of the solver's
  /// compressed column storage. Returns false when the basis is numerically
  /// singular (pivot column max below the same 1e-11 floor as the dense
  /// kernel).
  virtual bool factorize(const std::int32_t* col_start, const ColEntry* col_ent,
                         const std::vector<std::int32_t>& basic) = 0;

  /// x := B^-1 x. Input row-indexed, output position-indexed.
  virtual void ftran(std::vector<double>& x) const = 0;

  /// ftran of the column about to enter the basis. On entry `nz` lists the
  /// rows where x may be nonzero; on return, the positions where it is, in
  /// no particular order. An updating kernel keeps the partial result the
  /// next update() needs (the Forrest–Tomlin spike).
  virtual void ftran_entering(std::vector<double>& x, std::vector<std::int32_t>& nz) {
    ftran(x);
    nz.clear();
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] != 0.0) nz.push_back(static_cast<std::int32_t>(i));
    }
  }

  /// x := B^-T x. Input position-indexed, output row-indexed.
  virtual void btran(std::vector<double>& x) const = 0;

  /// x := B^-T e_r, row r of B^-1 (row-indexed, x resized to m).
  virtual void btran_unit(std::size_t r, std::vector<double>& x) const {
    std::fill(x.begin(), x.end(), 0.0);
    x[r] = 1.0;
    btran(x);
  }

  /// Update after a pivot at basis position `r`; `w` is the ftran_entering
  /// result of the entering column (position-indexed, w[r] != 0) and `wnz`
  /// lists the positions with w[i] != 0.0 in any order (r included), so
  /// kernels touch only the nonzeros.
  virtual void update(const std::vector<double>& w, std::size_t r,
                      const std::vector<std::int32_t>& wnz) = 0;

  /// Advises refactorizing before `refactor_interval` is reached because the
  /// updates have outgrown the factors or lost accuracy (always false for
  /// the dense kernel).
  [[nodiscard]] virtual bool growth_exceeded() const = 0;

  /// Immutable snapshot of the current factorization for basis transplants;
  /// null when the kernel does not support snapshots (dense).
  [[nodiscard]] virtual std::shared_ptr<const FactorState> snapshot() const = 0;

  /// Adopts a snapshot taken by a same-shaped kernel over the same basis.
  /// Returns false (state unchanged) when unsupported or incompatible; the
  /// caller then falls back to factorize().
  virtual bool adopt(const std::shared_ptr<const FactorState>& state) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Builds a kernel for an m-row basis. `markowitz_tol` and `eta_fill_factor`
/// (the Forrest–Tomlin growth bound) only affect the sparse kernel (see
/// SimplexOptions).
std::unique_ptr<BasisRep> make_basis_rep(BasisKernel kernel, std::size_t m,
                                         double markowitz_tol,
                                         double eta_fill_factor);

}  // namespace archex::milp
