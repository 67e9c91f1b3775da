/// \file branching_oracle_test.cpp
/// Exhaustive-enumeration oracle for the branching rule. Random binary MILPs
/// with several mixed-sense rows keep many columns fractional at once, so the
/// pseudocost rule actually has to choose (a one-row knapsack leaves a single
/// fractional column and forces every branching). Each instance is solved at
/// one and at four workers; the certified optimum must equal the best of all
/// 2^n points, and `Infeasible` must come back exactly when none is feasible.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "milp/branch_bound.hpp"

namespace archex::milp {
namespace {

enum class Sense { Le, Ge, Eq };

struct Row {
  std::vector<int> a;
  Sense sense;
  int rhs;
};

struct Instance {
  int n = 0;
  std::vector<int> cost;
  ObjectiveSense obj_sense = ObjectiveSense::Minimize;
  std::vector<Row> rows;
};

constexpr int kInstances = 40;

/// 8-14 binaries, 3-6 rows with integer coefficients and mixed senses,
/// integer costs. Most right-hand sides are anchored at a random point (with
/// some slack on inequalities) so the instance has structure to optimize;
/// about one row in five gets a free right-hand side, which makes some
/// instances infeasible.
Instance make_instance(unsigned seed) {
  std::mt19937 rng(seed * 2654435761u + 17u);
  auto uni = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  Instance in;
  in.n = uni(8, 14);
  in.obj_sense = uni(0, 1) == 0 ? ObjectiveSense::Minimize : ObjectiveSense::Maximize;
  for (int j = 0; j < in.n; ++j) in.cost.push_back(uni(-9, 9));
  std::vector<int> anchor;
  for (int j = 0; j < in.n; ++j) anchor.push_back(uni(0, 1));
  const int rows = uni(3, 6);
  for (int i = 0; i < rows; ++i) {
    Row r;
    int at_anchor = 0;
    for (int j = 0; j < in.n; ++j) {
      r.a.push_back(uni(-5, 5));
      at_anchor += r.a.back() * anchor[static_cast<std::size_t>(j)];
    }
    r.sense = static_cast<Sense>(uni(0, 2));
    const bool free_rhs = uni(0, 4) == 0;
    const int slack = uni(0, 4);
    r.rhs = free_rhs ? uni(-12, 12)
            : r.sense == Sense::Le ? at_anchor + slack
            : r.sense == Sense::Ge ? at_anchor - slack
                                   : at_anchor;
    in.rows.push_back(std::move(r));
  }
  return in;
}

Model to_model(const Instance& in) {
  Model m;
  std::vector<VarId> x;
  for (int j = 0; j < in.n; ++j) x.push_back(m.add_binary());
  LinExpr obj;
  for (int j = 0; j < in.n; ++j) {
    obj += static_cast<double>(in.cost[static_cast<std::size_t>(j)]) *
           x[static_cast<std::size_t>(j)];
  }
  m.set_objective(obj, in.obj_sense);
  for (const Row& r : in.rows) {
    LinExpr e;
    for (int j = 0; j < in.n; ++j) {
      e += static_cast<double>(r.a[static_cast<std::size_t>(j)]) *
           x[static_cast<std::size_t>(j)];
    }
    const LinExpr rhs(static_cast<double>(r.rhs));
    switch (r.sense) {
      case Sense::Le: m.add_constraint(e <= rhs); break;
      case Sense::Ge: m.add_constraint(e >= rhs); break;
      case Sense::Eq: m.add_constraint(e == rhs); break;
    }
  }
  return m;
}

/// Best objective over all 2^n binary points, or nullopt when none is
/// feasible.
std::optional<int> enumerate(const Instance& in) {
  std::optional<int> best;
  for (std::uint32_t mask = 0; mask < (1u << in.n); ++mask) {
    bool ok = true;
    for (const Row& r : in.rows) {
      int lhs = 0;
      for (int j = 0; j < in.n; ++j) {
        if ((mask >> j) & 1u) lhs += r.a[static_cast<std::size_t>(j)];
      }
      ok = r.sense == Sense::Le ? lhs <= r.rhs
           : r.sense == Sense::Ge ? lhs >= r.rhs
                                  : lhs == r.rhs;
      if (!ok) break;
    }
    if (!ok) continue;
    int obj = 0;
    for (int j = 0; j < in.n; ++j) {
      if ((mask >> j) & 1u) obj += in.cost[static_cast<std::size_t>(j)];
    }
    const bool better = !best || (in.obj_sense == ObjectiveSense::Minimize ? obj < *best
                                                                           : obj > *best);
    if (better) best = obj;
  }
  return best;
}

/// Solves every instance at `threads` workers against the oracle. Also checks
/// that the sweep has both outcomes and that it really branches: trees of
/// more than one node, and pseudocost observations to branch on.
void expect_sweep_matches_enumeration(int threads) {
  int feasible = 0;
  int infeasible = 0;
  int branched = 0;
  double updates = 0.0;
  for (int seed = 0; seed < kInstances; ++seed) {
    const Instance in = make_instance(static_cast<unsigned>(seed));
    const Model m = to_model(in);
    MilpOptions o;
    o.num_threads = threads;
    o.time_limit_s = 60;
    const Solution s = solve_milp(m, o);
    const std::optional<int> best = enumerate(in);
    if (!best) {
      ++infeasible;
      EXPECT_EQ(s.status, SolveStatus::Infeasible)
          << "seed " << seed << " threads " << threads << ": " << to_string(s.status);
      continue;
    }
    ++feasible;
    ASSERT_TRUE(s.optimal()) << "seed " << seed << " threads " << threads << ": "
                             << to_string(s.status);
    EXPECT_NEAR(s.objective, static_cast<double>(*best), 1e-6)
        << "seed " << seed << " threads " << threads;
    EXPECT_EQ(s.metrics.at("check.certify.ok"), 1.0) << "seed " << seed;
    if (s.nodes_explored > 1) ++branched;
    updates += s.metrics.at("milp.branch.pseudocost_updates");
  }
  EXPECT_GE(feasible, kInstances / 2);
  EXPECT_GE(infeasible, 2);
  EXPECT_GE(branched, kInstances / 4);
  EXPECT_GT(updates, 0.0);
}

TEST(BranchingOracleTest, OneWorkerMatchesEnumeration) {
  expect_sweep_matches_enumeration(1);
}

TEST(BranchingOracleTest, FourWorkersMatchEnumeration) {
  expect_sweep_matches_enumeration(4);
}

}  // namespace
}  // namespace archex::milp
