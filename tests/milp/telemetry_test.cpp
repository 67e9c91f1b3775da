/// Tests for the solver telemetry added around the branch & bound: termination
/// reasons, the time-stamped incumbent trajectory, the structured event trace
/// (sequential node accounting, parallel steal events), phase timings, the
/// metrics snapshot and the live node log — plus the invariant that tracing
/// never perturbs the search itself.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>
#include <sstream>

#include "arch/compiled_model.hpp"
#include "domains/epn.hpp"
#include "milp/branch_bound.hpp"
#include "milp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace archex::milp {
namespace {

/// Deterministic binary knapsack (same family the parallel suite uses).
Model knapsack_fixture(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(1, 9);
  Model m;
  LinExpr tw, tv;
  for (int j = 0; j < n; ++j) {
    VarId v = m.add_binary();
    tw += static_cast<double>(w(rng)) * v;
    tv += static_cast<double>(w(rng)) * v;
  }
  m.add_constraint(tw <= LinExpr(2.5 * n));
  m.set_objective(tv, ObjectiveSense::Maximize);
  return m;
}

/// Strongly correlated knapsack: a large tree that keeps every worker busy.
Model hard_knapsack_fixture(int n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(10, 30);
  Model m;
  LinExpr tw, tv;
  double cap = 0.0;
  for (int j = 0; j < n; ++j) {
    VarId v = m.add_binary();
    const int wj = w(rng);
    tw += static_cast<double>(wj) * v;
    tv += (static_cast<double>(wj) + 5.0 + 0.1 * (j % 7)) * v;
    cap += wj;
  }
  m.add_constraint(tw <= LinExpr(0.5 * cap));
  m.set_objective(tv, ObjectiveSense::Maximize);
  return m;
}

// ---------------------------------------------------------------------------
// Termination reasons (satellite: Solution reports *why* it stopped)
// ---------------------------------------------------------------------------

TEST(TermReasonTest, OptimalSolve) {
  const Solution s = solve_milp(knapsack_fixture(12, 1));
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.term_reason, TermReason::Optimal);
  EXPECT_STREQ(to_string(TermReason::Optimal), "optimal");
}

TEST(TermReasonTest, InfeasibleModel) {
  Model m;
  VarId x = m.add_binary();
  m.add_constraint(LinExpr(x) >= LinExpr(2.0));
  m.set_objective(LinExpr(x));
  const Solution s = solve_milp(m);
  EXPECT_EQ(s.status, SolveStatus::Infeasible);
  EXPECT_EQ(s.term_reason, TermReason::Infeasible);
  EXPECT_STREQ(to_string(s.term_reason), "infeasible");
}

TEST(TermReasonTest, UnboundedModel) {
  Model m;
  VarId x = m.add_integer(0, kInf);
  m.set_objective(-1.0 * x);  // min -x, x unbounded above
  const Solution s = solve_milp(m);
  EXPECT_EQ(s.status, SolveStatus::Unbounded);
  EXPECT_EQ(s.term_reason, TermReason::Unbounded);
}

TEST(TermReasonTest, NodeLimit) {
  MilpOptions o;
  o.num_threads = 1;
  o.max_nodes = 1;  // the fractional root alone exhausts the budget
  const Solution s = solve_milp(knapsack_fixture(22, 3), o);
  EXPECT_EQ(s.status, SolveStatus::NodeLimit);
  EXPECT_EQ(s.term_reason, TermReason::NodeLimit);
  EXPECT_STREQ(to_string(s.term_reason), "node-limit");
}

TEST(TermReasonTest, TimeLimit) {
  MilpOptions o;
  o.num_threads = 1;
  o.time_limit_s = 0.05;  // far below what the hard tree needs
  const Solution s = solve_milp(hard_knapsack_fixture(45, 7), o);
  EXPECT_EQ(s.status, SolveStatus::TimeLimit);
  EXPECT_EQ(s.term_reason, TermReason::TimeLimit);
  EXPECT_STREQ(to_string(s.term_reason), "time-limit");
}

TEST(TermReasonTest, MatchesStatusMapping) {
  EXPECT_EQ(term_reason_from(SolveStatus::Optimal), TermReason::Optimal);
  EXPECT_EQ(term_reason_from(SolveStatus::Infeasible), TermReason::Infeasible);
  EXPECT_EQ(term_reason_from(SolveStatus::Unbounded), TermReason::Unbounded);
  EXPECT_EQ(term_reason_from(SolveStatus::NodeLimit), TermReason::NodeLimit);
  EXPECT_EQ(term_reason_from(SolveStatus::TimeLimit), TermReason::TimeLimit);
  EXPECT_EQ(term_reason_from(SolveStatus::IterationLimit), TermReason::IterationLimit);
  EXPECT_EQ(term_reason_from(SolveStatus::NumericalError), TermReason::Numerical);
}

TEST(TermReasonTest, LpRelaxationReportsReason) {
  const Solution s = solve_lp_relaxation(knapsack_fixture(12, 1));
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_EQ(s.term_reason, TermReason::Optimal);
}

// ---------------------------------------------------------------------------
// Incumbent trajectory (satellite: time-stamped improvements, model sense)
// ---------------------------------------------------------------------------

TEST(TelemetryTest, IncumbentTrajectoryIsMonotoneInModelSense) {
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(knapsack_fixture(22, 17), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.incumbent_trajectory.empty());
  for (std::size_t i = 1; i < s.incumbent_trajectory.size(); ++i) {
    const IncumbentPoint& prev = s.incumbent_trajectory[i - 1];
    const IncumbentPoint& cur = s.incumbent_trajectory[i];
    EXPECT_LE(prev.t, cur.t) << "timestamps must be non-decreasing";
    // Maximize model: every recorded incumbent strictly improves.
    EXPECT_GT(cur.objective, prev.objective) << "point " << i;
  }
  EXPECT_NEAR(s.incumbent_trajectory.back().objective, s.objective, 1e-9);
}

TEST(TelemetryTest, TrajectoryChainsUserCallback) {
  int calls = 0;
  MilpOptions o;
  o.num_threads = 1;
  o.on_incumbent = [&calls](double) { ++calls; };
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(static_cast<std::size_t>(calls), s.incumbent_trajectory.size());
}

// ---------------------------------------------------------------------------
// Structured trace
// ---------------------------------------------------------------------------

TEST(TelemetryTest, TraceOffByDefault) {
  const Solution s = solve_milp(knapsack_fixture(12, 1));
  EXPECT_TRUE(s.trace.empty());
  EXPECT_EQ(s.trace.dropped, 0);
}

TEST(TelemetryTest, SequentialTraceAccountsForEveryNode) {
  MilpOptions o;
  o.num_threads = 1;
  o.trace = true;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.trace.empty());
  EXPECT_EQ(s.trace.count(obs::EventType::SolveStart), 1u);
  EXPECT_EQ(s.trace.count(obs::EventType::SolveEnd), 1u);
  EXPECT_GE(s.trace.count(obs::EventType::Phase), 3u);  // presolve, root, tree
  // Every node opens exactly once and closes exactly once, under its own
  // id. Explored nodes ran an LP; the pool also opens and closes nodes a
  // newer incumbent prunes before their LP (outcome Pruned), which do not
  // count as explored.
  std::size_t pruned = 0;
  std::set<std::int64_t> open_ids, close_ids;
  for (const obs::TraceEvent& e : s.trace.events) {
    if (e.type == obs::EventType::NodeOpen) open_ids.insert(e.id);
    if (e.type != obs::EventType::NodeClose) continue;
    close_ids.insert(e.id);
    if (static_cast<obs::NodeOutcome>(e.detail) == obs::NodeOutcome::Pruned) ++pruned;
  }
  const auto explored_or_pruned = static_cast<std::size_t>(s.nodes_explored) + pruned;
  EXPECT_EQ(s.trace.count(obs::EventType::NodeOpen), explored_or_pruned);
  EXPECT_EQ(s.trace.count(obs::EventType::NodeClose), explored_or_pruned);
  EXPECT_EQ(open_ids.size(), explored_or_pruned);
  EXPECT_EQ(open_ids, close_ids);
  EXPECT_EQ(s.trace.count(obs::EventType::Steal), 0u);
  EXPECT_EQ(s.trace.num_workers(), 1);
  // Merged events are time-sorted.
  for (std::size_t i = 1; i < s.trace.events.size(); ++i) {
    EXPECT_LE(s.trace.events[i - 1].t, s.trace.events[i].t);
  }
  // Incumbent events carry the model-sense objective; the last one is the
  // reported optimum.
  ASSERT_GE(s.trace.count(obs::EventType::Incumbent), 1u);
  double last_inc = 0.0;
  for (const obs::TraceEvent& e : s.trace.events) {
    if (e.type == obs::EventType::Incumbent) last_inc = e.value;
  }
  EXPECT_NEAR(last_inc, s.objective, 1e-9);
}

TEST(TelemetryTest, ParallelTraceRecordsStealsFromMultipleWorkers) {
  MilpOptions o;
  o.num_threads = 4;
  o.trace = true;
  // The ~350k-node tree emits far more than the default ring capacity; give
  // each worker room for the full solve so event counts are exact.
  o.trace_capacity = std::size_t{1} << 19;
  o.time_limit_s = 300;
  const Solution s = solve_milp(hard_knapsack_fixture(50, 42), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.threads_used, 4);
  EXPECT_GE(s.steals, 1);
  EXPECT_GE(s.trace.num_workers(), 2) << "events from at least two workers";
  EXPECT_GE(s.trace.count(obs::EventType::Steal), 1u);
  EXPECT_GE(s.trace.count(obs::EventType::Incumbent), 1u);
  EXPECT_GT(s.trace.count(obs::EventType::NodeOpen), 0u);
  // The ring may overwrite under this workload, but never silently: the
  // merged trace reports exactly what was lost.
  if (s.trace.dropped == 0) {
    EXPECT_EQ(s.trace.count(obs::EventType::Steal),
              static_cast<std::size_t>(s.steals));
  }
}

TEST(TelemetryTest, TracingDoesNotPerturbTheSearch) {
  const Model m = knapsack_fixture(22, 99);
  MilpOptions off;
  off.num_threads = 1;
  MilpOptions on = off;
  on.trace = true;
  const Solution a = solve_milp(m, off);
  const Solution b = solve_milp(m, on);
  ASSERT_TRUE(a.optimal());
  ASSERT_TRUE(b.optimal());
  EXPECT_EQ(a.nodes_explored, b.nodes_explored);
  EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.x, b.x);
}

// ---------------------------------------------------------------------------
// Phase timings + metrics snapshot
// ---------------------------------------------------------------------------

TEST(TelemetryTest, PhaseTimingsArePopulated) {
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_GE(s.phases.presolve, 0.0);
  EXPECT_GT(s.phases.root_lp, 0.0);
  EXPECT_GE(s.phases.heuristic, 0.0);
  EXPECT_GT(s.phases.tree, 0.0);
  EXPECT_GE(s.phases.extract, 0.0);
  const double total = s.phases.presolve + s.phases.root_lp + s.phases.heuristic +
                       s.phases.tree + s.phases.extract;
  EXPECT_LE(total, s.solve_seconds + 0.5);
}

TEST(TelemetryTest, MetricsSnapshotCoversTheSolve) {
  MilpOptions o;
  o.num_threads = 1;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_FALSE(s.metrics.empty());
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.nodes"),
                   static_cast<double>(s.nodes_explored));
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.simplex_iterations"),
                   static_cast<double>(s.simplex_iterations));
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.threads"), 1.0);
  EXPECT_DOUBLE_EQ(s.metrics.at("milp.steals"), 0.0);
  EXPECT_NEAR(s.metrics.at("milp.objective"), s.objective, 1e-9);
  EXPECT_GT(s.metrics.at("milp.phase.tree.seconds"), 0.0);
  EXPECT_GE(s.metrics.at("milp.incumbents"), 1.0);
}

TEST(TelemetryTest, ExternalRegistryReceivesTheMetrics) {
  obs::MetricsRegistry reg;
  MilpOptions o;
  o.num_threads = 1;
  o.metrics = &reg;
  const Solution s = solve_milp(knapsack_fixture(12, 1), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(reg.counter("milp.nodes").value(), s.nodes_explored);
}

TEST(TelemetryTest, PseudocostCountersTrackBranching) {
  // EPN tiny branches many fractional columns: every solved child LP is one
  // pseudocost update, and the first branchings meet unobserved sides.
  obs::MetricsRegistry reg;
  MilpOptions o;
  o.num_threads = 1;
  o.metrics = &reg;
  const auto p = domains::epn::make_problem(domains::epn::tiny_config());
  const Solution s = solve_milp(compile(*p).base_model(), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_GT(s.nodes_explored, 1);
  const double updates = s.metrics.at("milp.branch.pseudocost_updates");
  const double uninit = s.metrics.at("milp.branch.uninitialized");
  EXPECT_GT(updates, 0.0);
  EXPECT_LT(updates, static_cast<double>(s.nodes_explored));  // the root learns nothing
  EXPECT_GE(uninit, 1.0);
  EXPECT_LT(uninit, static_cast<double>(s.nodes_explored));
  const std::string text = obs::prometheus_text(reg);
  EXPECT_NE(text.find("archex_milp_branch_pseudocost_updates_total"), std::string::npos);
  EXPECT_NE(text.find("archex_milp_branch_uninitialized_total"), std::string::npos);

  // A root-integral model never branches, so the table is never consulted.
  Model m;
  const VarId x = m.add_binary();
  const VarId y = m.add_binary();
  m.add_constraint(x + y <= LinExpr(1.0));
  m.set_objective(2.0 * x + 1.0 * y, ObjectiveSense::Maximize);
  const Solution r = solve_milp(m);
  ASSERT_TRUE(r.optimal());
  EXPECT_EQ(r.nodes_explored, 1);
  EXPECT_EQ(r.metrics.at("milp.branch.pseudocost_updates"), 0.0);
  EXPECT_EQ(r.metrics.at("milp.branch.uninitialized"), 0.0);
}

// ---------------------------------------------------------------------------
// Live node log
// ---------------------------------------------------------------------------

TEST(TelemetryTest, NodeLogEmitsHeaderAndFinalLine) {
  std::ostringstream log;
  MilpOptions o;
  o.num_threads = 1;
  o.log_interval = 1e-6;  // every due() check fires
  o.log_sink = &log;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  const std::string out = log.str();
  EXPECT_NE(out.find("Nodes"), std::string::npos);
  EXPECT_NE(out.find("Best Bound"), std::string::npos);
  EXPECT_NE(out.find("Gap%"), std::string::npos);
}

TEST(TelemetryTest, NodeLogOffByDefault) {
  std::ostringstream log;
  MilpOptions o;
  o.num_threads = 1;
  o.log_sink = &log;  // sink alone must not enable logging
  const Solution s = solve_milp(knapsack_fixture(12, 1), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_TRUE(log.str().empty());
}

}  // namespace
}  // namespace archex::milp
