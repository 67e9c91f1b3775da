/// \file kernel_crosscheck_test.cpp
/// Dense-vs-sparse basis kernel cross-checks. The dense explicit inverse is
/// the oracle: both kernels must agree on status, optimal objective and the
/// independent certifier's verdict over randomized bounded-variable LPs
/// (including degenerate and near-singular bases), a long chain of
/// Forrest–Tomlin updates must track the oracle's ftran/btran pivot by
/// pivot, and a transplanted factorization snapshot must reproduce what a
/// fresh refactorization computes, on the exporting thread or another.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "check/certify.hpp"
#include "milp/pricing.hpp"
#include "milp/simplex.hpp"

namespace {

using namespace archex::milp;

/// Random bounded-variable LP with mixed senses, negative lower bounds,
/// fixed columns and one-sided (infinite-bound) columns. Every generated
/// instance is feasible at x = 0 for its LE/GE rows; EQ rows use rhs 0 so
/// the origin stays feasible and phase 1 is still exercised via GE rows.
Model random_bounded_lp(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(-2.0, 3.0);
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int> col(0, n - 1);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < n; ++j) {
    switch (kind(rng)) {
      case 0: v.push_back(m.add_continuous(-5.0, 5.0)); break;
      case 1: v.push_back(m.add_continuous(2.0, 2.0)); break;  // fixed
      case 2: v.push_back(m.add_continuous(0.0, kInf)); break;
      default: v.push_back(m.add_continuous(0.0, 10.0)); break;
    }
  }
  for (int i = 0; i < n; ++i) {
    LinExpr e;
    for (int k = 0; k < 4; ++k) e += coef(rng) * v[static_cast<std::size_t>(col(rng))];
    switch (i % 3) {
      case 0: m.add_constraint(std::move(e), Sense::LE, 8.0 + i); break;
      case 1: m.add_constraint(std::move(e), Sense::GE, -12.0 - i); break;
      default: m.add_constraint(std::move(e), Sense::EQ, 0.0); break;
    }
  }
  LinExpr obj;
  for (int j = 0; j < n; ++j) {
    // Columns unbounded above get a positive cost so minimization stays
    // bounded; the rest mix signs freely.
    const bool one_sided = m.vars()[static_cast<std::size_t>(j)].ub >= kInf;
    obj += (one_sided ? std::abs(coef(rng)) + 0.1 : coef(rng)) * v[static_cast<std::size_t>(j)];
  }
  m.set_objective(obj);
  return m;
}

SimplexOptions kernel_opts(BasisKernel k) {
  SimplexOptions o;
  o.kernel = k;
  return o;
}

/// Solve with both kernels and require identical verdicts: same status, and
/// on Optimal the same objective plus matching certify_lp verdicts.
void expect_kernels_agree(const Model& m, const char* what) {
  SimplexSolver sparse(m, kernel_opts(BasisKernel::SparseLu));
  SimplexSolver dense(m, kernel_opts(BasisKernel::Dense));
  const SolveStatus st_sparse = sparse.solve_primal();
  const SolveStatus st_dense = dense.solve_primal();
  EXPECT_EQ(st_sparse, st_dense) << what;
  if (st_sparse != SolveStatus::Optimal || st_dense != SolveStatus::Optimal) return;

  const double rel = 1e-6 * (1.0 + std::abs(dense.objective_value()));
  EXPECT_NEAR(sparse.objective_value(), dense.objective_value(), rel) << what;

  const auto cert_sparse =
      archex::check::certify_lp(m, sparse.primal_solution(), sparse.objective_value(),
                                sparse.dual_values(), sparse.reduced_costs());
  const auto cert_dense =
      archex::check::certify_lp(m, dense.primal_solution(), dense.objective_value(),
                                dense.dual_values(), dense.reduced_costs());
  EXPECT_EQ(cert_sparse.ok(), cert_dense.ok()) << what << "\nsparse: "
      << cert_sparse.summary() << "\ndense: " << cert_dense.summary();
  EXPECT_TRUE(cert_sparse.ok()) << what << "\n" << cert_sparse.summary();
}

TEST(KernelCrossCheck, RandomBoundedLpsAgree) {
  for (unsigned seed = 0; seed < 20; ++seed) {
    expect_kernels_agree(random_bounded_lp(18, seed),
                         ("seed " + std::to_string(seed)).c_str());
  }
}

TEST(KernelCrossCheck, DegenerateBasesAgree) {
  // Duplicated rows and symmetric costs: massive dual degeneracy, the
  // pivot-tie regime where kernels are most likely to diverge numerically.
  for (unsigned seed = 100; seed < 110; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coef(0.5, 2.0);
    Model m;
    std::vector<VarId> v;
    for (int j = 0; j < 10; ++j) v.push_back(m.add_continuous(0.0, 1.0));
    for (int i = 0; i < 5; ++i) {
      LinExpr e;
      for (int j = 0; j < 10; ++j) e += coef(rng) * v[static_cast<std::size_t>(j)];
      const double rhs = 4.0;
      LinExpr e2 = e;
      m.add_constraint(std::move(e), Sense::LE, rhs);
      m.add_constraint(std::move(e2), Sense::LE, rhs);  // exact duplicate row
    }
    LinExpr obj;
    for (int j = 0; j < 10; ++j) obj += -1.0 * v[static_cast<std::size_t>(j)];
    m.set_objective(obj);
    expect_kernels_agree(m, ("degenerate seed " + std::to_string(seed)).c_str());
  }
}

TEST(KernelCrossCheck, NearSingularBasesAgree) {
  // Rows that are near scalar multiples of each other: the basis matrix can
  // come within an eyelash of singular, stressing threshold pivoting.
  for (unsigned seed = 200; seed < 208; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> coef(0.5, 2.0);
    Model m;
    std::vector<VarId> v;
    for (int j = 0; j < 8; ++j) v.push_back(m.add_continuous(0.0, 10.0));
    for (int i = 0; i < 4; ++i) {
      LinExpr a, b;
      for (int j = 0; j < 8; ++j) {
        const double c = coef(rng);
        a += c * v[static_cast<std::size_t>(j)];
        b += c * (1.0 + 1e-9) * v[static_cast<std::size_t>(j)];
      }
      m.add_constraint(std::move(a), Sense::LE, 20.0);
      m.add_constraint(std::move(b), Sense::GE, 1.0);
    }
    LinExpr obj;
    for (int j = 0; j < 8; ++j) obj += (j % 2 == 0 ? 1.0 : -1.0) * v[static_cast<std::size_t>(j)];
    m.set_objective(obj);
    expect_kernels_agree(m, ("near-singular seed " + std::to_string(seed)).c_str());
  }
}

/// Degenerate model: duplicated rows and symmetric costs.
Model degenerate_lp(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(0.5, 2.0);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < 10; ++j) v.push_back(m.add_continuous(0.0, 1.0));
  for (int i = 0; i < 5; ++i) {
    LinExpr e;
    for (int j = 0; j < 10; ++j) e += coef(rng) * v[static_cast<std::size_t>(j)];
    LinExpr e2 = e;
    m.add_constraint(std::move(e), Sense::LE, 4.0);
    m.add_constraint(std::move(e2), Sense::LE, 4.0);  // exact duplicate row
  }
  LinExpr obj;
  for (int j = 0; j < 10; ++j) obj += -1.0 * v[static_cast<std::size_t>(j)];
  m.set_objective(obj);
  return m;
}

/// Near-singular model: row pairs that are scalar multiples up to 1e-9.
Model near_singular_lp(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coef(0.5, 2.0);
  Model m;
  std::vector<VarId> v;
  for (int j = 0; j < 8; ++j) v.push_back(m.add_continuous(0.0, 10.0));
  for (int i = 0; i < 4; ++i) {
    LinExpr a, b;
    for (int j = 0; j < 8; ++j) {
      const double c = coef(rng);
      a += c * v[static_cast<std::size_t>(j)];
      b += c * (1.0 + 1e-9) * v[static_cast<std::size_t>(j)];
    }
    m.add_constraint(std::move(a), Sense::LE, 20.0);
    m.add_constraint(std::move(b), Sense::GE, 1.0);
  }
  LinExpr obj;
  for (int j = 0; j < 8; ++j) obj += (j % 2 == 0 ? 1.0 : -1.0) * v[static_cast<std::size_t>(j)];
  m.set_objective(obj);
  return m;
}

/// |a - b| within a relative 1e-9 of the oracle's magnitude, entry by entry.
void expect_vectors_match(const std::vector<double>& sparse, const std::vector<double>& dense,
                          const std::string& what) {
  double scale = 1.0;
  for (const double d : dense) scale = std::max(scale, std::abs(d));
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_NEAR(sparse[i], dense[i], 1e-9 * scale) << what << " entry " << i;
  }
}

/// Drives the sparse kernel through a chain of pivots on the basis matrices
/// of `model` ([A | I], slacks basic at the start) with no refactorization,
/// and after every pivot compares its solves with the dense oracle freshly
/// factorized on the same basis.
void run_update_chain(const Model& model, int pivots, unsigned seed, const std::string& what) {
  const std::size_t m = model.num_constraints();
  const std::size_t n = model.num_vars();
  std::vector<std::vector<ColEntry>> cols(n + m);
  for (std::size_t i = 0; i < m; ++i) {
    for (const Term& t : model.constraint(i).expr.terms()) {
      cols[static_cast<std::size_t>(t.var.index)].push_back({static_cast<std::int32_t>(i), t.coef});
    }
    cols[n + i].push_back({static_cast<std::int32_t>(i), 1.0});
  }
  std::vector<std::int32_t> col_start{0};
  std::vector<ColEntry> col_ent;
  for (const auto& c : cols) {
    col_ent.insert(col_ent.end(), c.begin(), c.end());
    col_start.push_back(static_cast<std::int32_t>(col_ent.size()));
  }
  std::vector<std::int32_t> basic(m);
  std::vector<char> is_basic(n + m, 0);
  for (std::size_t i = 0; i < m; ++i) {
    basic[i] = static_cast<std::int32_t>(n + i);
    is_basic[n + i] = 1;
  }
  // A growth bound this large never asks for a refactorization.
  auto sparse = make_basis_rep(BasisKernel::SparseLu, m, 0.1, 1e9);
  auto dense = make_basis_rep(BasisKernel::Dense, m, 0.1, 1e9);
  ASSERT_TRUE(sparse->factorize(col_start.data(), col_ent.data(), basic));

  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, n + m - 1);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  std::vector<double> ws(m), wd(m);
  std::vector<std::int32_t> wnz;
  int done = 0;
  for (int tries = 0; done < pivots && tries < 50 * pivots; ++tries) {
    const std::size_t q = pick(rng);
    if (is_basic[q] != 0) continue;
    std::fill(ws.begin(), ws.end(), 0.0);
    wnz.clear();
    for (const ColEntry& e : cols[q]) {
      ws[static_cast<std::size_t>(e.row)] = e.val;
      wnz.push_back(e.row);
    }
    wd = ws;
    ASSERT_TRUE(dense->factorize(col_start.data(), col_ent.data(), basic)) << what;
    sparse->ftran_entering(ws, wnz);
    dense->ftran(wd);
    expect_vectors_match(ws, wd, what + " entering column");
    // The kernel lists exactly the nonzero positions of its result.
    std::vector<std::int32_t> listed = wnz;
    std::sort(listed.begin(), listed.end());
    std::vector<std::int32_t> nonzero;
    for (std::size_t i = 0; i < m; ++i) {
      if (ws[i] != 0.0) nonzero.push_back(static_cast<std::int32_t>(i));
    }
    ASSERT_EQ(listed, nonzero) << what << " entering column's nonzero list";
    // Leaving position: a random one among the pivots that keep the basis
    // well conditioned, so the oracle itself stays exact to ~1e-12.
    double wmax = 0.0;
    for (const double x : wd) wmax = std::max(wmax, std::abs(x));
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < m; ++i) {
      if (std::abs(wd[i]) >= 0.5 * wmax && std::abs(wd[i]) > 1e-3) ok.push_back(i);
    }
    if (ok.empty()) continue;
    const std::size_t r = ok[std::uniform_int_distribution<std::size_t>(0, ok.size() - 1)(rng)];
    if (done % 2 == 0) {
      // As in the simplex, the pivot row's btran comes first: update()
      // reuses its U^T solve as the row eta. Odd pivots solve their own.
      std::vector<double> row(m);
      sparse->btran_unit(r, row);
    }
    sparse->update(ws, r, wnz);
    is_basic[static_cast<std::size_t>(basic[r])] = 0;
    is_basic[q] = 1;
    basic[r] = static_cast<std::int32_t>(q);
    ++done;

    const std::string at = what + " after pivot " + std::to_string(done);
    ASSERT_TRUE(dense->factorize(col_start.data(), col_ent.data(), basic)) << at;
    ASSERT_FALSE(sparse->growth_exceeded()) << at << ": an update lost accuracy";
    std::vector<double> xs(m), xd(m);
    for (double& x : xs) x = val(rng);
    xd = xs;
    sparse->ftran(xs);
    dense->ftran(xd);
    expect_vectors_match(xs, xd, at + " ftran");
    for (double& x : xs) x = val(rng);
    xd = xs;
    sparse->btran(xs);
    dense->btran(xd);
    expect_vectors_match(xs, xd, at + " btran");
    sparse->btran_unit(r, xs);
    dense->btran_unit(r, xd);
    expect_vectors_match(xs, xd, at + " btran of a unit vector");
  }
  EXPECT_EQ(done, pivots) << what;
}

TEST(KernelCrossCheck, UpdateChainTracksDenseOracle) {
  // A full refactor_interval of updates without a refactorization.
  const int pivots = SimplexOptions{}.refactor_interval;
  for (unsigned seed = 0; seed < 3; ++seed) {
    run_update_chain(random_bounded_lp(24, seed), pivots, seed, "random " + std::to_string(seed));
    run_update_chain(degenerate_lp(100 + seed), pivots, seed,
                     "degenerate " + std::to_string(seed));
    run_update_chain(near_singular_lp(200 + seed), pivots, seed,
                     "near-singular " + std::to_string(seed));
  }
}

TEST(KernelCrossCheck, SnapshotAdoptedOnAnotherThreadReachesSameOptimum) {
  // A snapshot taken mid-chain (updates since the last refactorization)
  // is immutable and shared: a solver on another thread adopts it while the
  // donor keeps pivoting, and both land on the same optimum.
  const Model m = random_bounded_lp(16, 7);
  SimplexSolver donor(m, kernel_opts(BasisKernel::SparseLu));
  ASSERT_EQ(donor.solve_primal(), SolveStatus::Optimal);
  donor.set_bounds(0, 0.0, 4.0);
  ASSERT_EQ(donor.reoptimize_dual(), SolveStatus::Optimal);
  const SimplexSolver::Basis basis = donor.export_basis();
  ASSERT_NE(basis.factor, nullptr);
  ASSERT_GT(basis.factor->update_count(), 0) << "snapshot must carry updates";

  double adopted_obj = 0.0;
  SolveStatus adopted_status = SolveStatus::NumericalError;
  std::int64_t adopted_transplants = 0;
  std::thread peer([&] {
    SimplexSolver thief(m, kernel_opts(BasisKernel::SparseLu));
    thief.set_bounds(0, 0.0, 4.0);
    thief.set_bounds(1, 0.0, 3.0);
    if (!thief.load_basis(basis)) return;
    adopted_transplants = thief.reopt_stats().transplants;
    adopted_status = thief.reoptimize_dual();
    adopted_obj = thief.objective_value();
  });
  donor.set_bounds(1, 0.0, 3.0);
  const SolveStatus donor_status = donor.reoptimize_dual();
  peer.join();
  ASSERT_EQ(donor_status, SolveStatus::Optimal);
  ASSERT_EQ(adopted_status, SolveStatus::Optimal);
  EXPECT_EQ(adopted_transplants, 1);
  const double rel = 1e-8 * (1.0 + std::abs(donor.objective_value()));
  EXPECT_NEAR(adopted_obj, donor.objective_value(), rel);
}

TEST(KernelCrossCheck, EtaReplayMatchesRefactorization) {
  const Model m = random_bounded_lp(16, 7);
  SimplexSolver donor(m, kernel_opts(BasisKernel::SparseLu));
  ASSERT_EQ(donor.solve_primal(), SolveStatus::Optimal);
  // Accumulate updates past the initial factorization before exporting.
  donor.set_bounds(0, 0.0, 4.0);
  ASSERT_EQ(donor.reoptimize_dual(), SolveStatus::Optimal);
  const SimplexSolver::Basis basis = donor.export_basis();
  ASSERT_NE(basis.factor, nullptr) << "sparse kernel must ship its factorization";

  // Transplant via the snapshot's update file: no refactorization may be
  // charged.
  SimplexSolver replay(m, kernel_opts(BasisKernel::SparseLu));
  replay.set_bounds(0, 0.0, 4.0);
  ASSERT_TRUE(replay.load_basis(basis));
  EXPECT_EQ(replay.reopt_stats().transplants, 1);
  EXPECT_EQ(replay.reopt_stats().refactors, 0)
      << "transplant must adopt the snapshot, not refactorize";

  // Same basis through the fresh-refactorization path (snapshot stripped).
  SimplexSolver::Basis stripped = basis;
  stripped.factor = nullptr;
  SimplexSolver refact(m, kernel_opts(BasisKernel::SparseLu));
  refact.set_bounds(0, 0.0, 4.0);
  ASSERT_TRUE(refact.load_basis(stripped));
  EXPECT_EQ(refact.reopt_stats().transplants, 0);
  EXPECT_GE(refact.reopt_stats().refactors, 1);

  // Both must land on the donor's optimum after a bound tightening.
  donor.set_bounds(1, 0.0, 3.0);
  replay.set_bounds(1, 0.0, 3.0);
  refact.set_bounds(1, 0.0, 3.0);
  ASSERT_EQ(donor.reoptimize_dual(), SolveStatus::Optimal);
  ASSERT_EQ(replay.reoptimize_dual(), SolveStatus::Optimal);
  ASSERT_EQ(refact.reoptimize_dual(), SolveStatus::Optimal);
  // The adopted transplant continues the donor's exact arithmetic: same
  // factors, same updates, same nonbasic resting points.
  EXPECT_DOUBLE_EQ(replay.objective_value(), donor.objective_value());
  const double rel = 1e-8 * (1.0 + std::abs(donor.objective_value()));
  EXPECT_NEAR(refact.objective_value(), donor.objective_value(), rel);
}

TEST(KernelCrossCheck, SnapshotSurvivesDonorMutation) {
  // The snapshot must be immutable: the donor pivoting on (refactorizing,
  // updating its eta file) cannot corrupt an already-exported basis.
  const Model m = random_bounded_lp(16, 7);
  SimplexSolver donor(m, kernel_opts(BasisKernel::SparseLu));
  ASSERT_EQ(donor.solve_primal(), SolveStatus::Optimal);
  const SimplexSolver::Basis basis = donor.export_basis();
  const double exported_obj = donor.objective_value();

  // Mutate the donor's kernel state thoroughly after the export: pivot,
  // refactorize, accumulate and discard updates. The tightened rounds need not
  // stay feasible — any churn serves — but the original bounds are restored
  // before the final comparison.
  for (int round = 0; round < 4; ++round) {
    const double lb = m.vars()[static_cast<std::size_t>(round)].lb;
    const double ub = m.vars()[static_cast<std::size_t>(round)].ub;
    donor.set_bounds(round, lb, lb + 0.5 * std::min(1.0, ub - lb));
    (void)donor.reoptimize_dual();
    donor.set_bounds(round, lb, ub);
    (void)donor.reoptimize_dual();
  }

  SimplexSolver thief(m, kernel_opts(BasisKernel::SparseLu));
  ASSERT_TRUE(thief.load_basis(basis));
  ASSERT_EQ(thief.reoptimize_dual(), SolveStatus::Optimal);
  const double rel = 1e-8 * (1.0 + std::abs(exported_obj));
  EXPECT_NEAR(thief.objective_value(), exported_obj, rel);
}

TEST(KernelCrossCheck, DenseKernelShipsNoSnapshotAndStillLoads) {
  const Model m = random_bounded_lp(12, 3);
  SimplexSolver a(m, kernel_opts(BasisKernel::Dense));
  ASSERT_EQ(a.solve_primal(), SolveStatus::Optimal);
  const SimplexSolver::Basis basis = a.export_basis();
  EXPECT_EQ(basis.factor, nullptr);
  SimplexSolver b(m, kernel_opts(BasisKernel::Dense));
  ASSERT_TRUE(b.load_basis(basis));  // refactorization fallback
  EXPECT_EQ(b.reopt_stats().transplants, 0);
  ASSERT_EQ(b.reoptimize_dual(), SolveStatus::Optimal);
  const double rel = 1e-8 * (1.0 + std::abs(a.objective_value()));
  EXPECT_NEAR(b.objective_value(), a.objective_value(), rel);
}

TEST(PricingRegistry, BuiltinsRegisteredAndUnknownFallsBack) {
  const auto names = pricer_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "dantzig"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "devex"), names.end());
  EXPECT_EQ(make_pricer("no-such-rule"), nullptr);

  // An unknown name on the options must fall back to Dantzig, not crash.
  SimplexOptions opts;
  opts.pricing = "no-such-rule";
  const Model m = random_bounded_lp(10, 5);
  const Solution s = solve_lp_relaxation(m, opts);
  EXPECT_EQ(s.status, SolveStatus::Optimal);
}

TEST(PricingRegistry, DevexReachesTheSameOptimum) {
  for (unsigned seed = 0; seed < 10; ++seed) {
    const Model m = random_bounded_lp(15, seed);
    SimplexOptions dantzig;
    SimplexOptions devex;
    devex.pricing = "devex";
    const Solution a = solve_lp_relaxation(m, dantzig);
    const Solution b = solve_lp_relaxation(m, devex);
    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    if (a.status != SolveStatus::Optimal) continue;
    const double rel = 1e-6 * (1.0 + std::abs(a.objective));
    EXPECT_NEAR(b.objective, a.objective, rel) << "seed " << seed;
  }
}

}  // namespace
