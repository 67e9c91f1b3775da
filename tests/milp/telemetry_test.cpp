/// Tests for the solver telemetry added around the branch & bound: termination
/// reasons, the time-stamped incumbent trajectory, the record stream
/// (sequential node accounting, parallel steal events, one recording per
/// phase), phase timings, the metrics snapshot and the live node log — plus
/// the invariant that recording never perturbs the search itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arch/compiled_model.hpp"
#include "domains/epn.hpp"
#include "milp/branch_bound.hpp"
#include "milp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

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
  EXPECT_EQ(MilpOptions{}.recorder, nullptr);
  const Solution s = solve_milp(knapsack_fixture(12, 1));
  EXPECT_EQ(s.metrics.count("milp.records_dropped"), 0u);
}

TEST(TelemetryTest, SequentialTraceAccountsForEveryNode) {
  obs::Recorder rec;
  MilpOptions o;
  o.num_threads = 1;
  o.recorder = &rec;
  const Solution s = solve_milp(knapsack_fixture(18, 5), o);
  ASSERT_TRUE(s.optimal());
  const obs::Trace trace = rec.trace();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.count(obs::EventType::SolveStart), 1u);
  EXPECT_EQ(trace.count(obs::EventType::SolveEnd), 1u);
  for (const obs::SpanName p : {obs::SpanName::Presolve, obs::SpanName::RootLp,
                                obs::SpanName::Tree}) {
    const auto begins = std::count_if(
        trace.records.begin(), trace.records.end(), [p](const obs::Record& r) {
          return r.type == obs::EventType::SpanBegin && r.id == obs::span_id(p);
        });
    EXPECT_EQ(begins, 1) << obs::to_string(p);
  }
  // Every node opens exactly once and closes exactly once, under its own
  // id. Explored nodes ran an LP; the pool also opens and closes nodes a
  // newer incumbent prunes before their LP (outcome Pruned), which do not
  // count as explored.
  std::size_t pruned = 0;
  std::set<std::int64_t> open_ids, close_ids;
  for (const obs::Record& e : trace.records) {
    if (e.type == obs::EventType::NodeOpen) open_ids.insert(e.id);
    if (e.type != obs::EventType::NodeClose) continue;
    close_ids.insert(e.id);
    if (static_cast<obs::NodeOutcome>(e.detail) == obs::NodeOutcome::Pruned) ++pruned;
  }
  const auto explored_or_pruned = static_cast<std::size_t>(s.nodes_explored) + pruned;
  EXPECT_EQ(trace.count(obs::EventType::NodeOpen), explored_or_pruned);
  EXPECT_EQ(trace.count(obs::EventType::NodeClose), explored_or_pruned);
  EXPECT_EQ(open_ids.size(), explored_or_pruned);
  EXPECT_EQ(open_ids, close_ids);
  EXPECT_EQ(trace.count(obs::EventType::Steal), 0u);
  EXPECT_EQ(trace.num_workers(), 1);
  // Merged records are time-sorted.
  for (std::size_t i = 1; i < trace.records.size(); ++i) {
    EXPECT_LE(trace.records[i - 1].ns, trace.records[i].ns);
  }
  // Incumbent events carry the model-sense objective; the last one is the
  // reported optimum.
  ASSERT_GE(trace.count(obs::EventType::Incumbent), 1u);
  double last_inc = 0.0;
  for (const obs::Record& e : trace.records) {
    if (e.type == obs::EventType::Incumbent) last_inc = e.value;
  }
  EXPECT_NEAR(last_inc, s.objective, 1e-9);
}

TEST(TelemetryTest, ParallelTraceRecordsStealsFromMultipleWorkers) {
  // The ~350k-node tree emits far more than the default ring capacity; give
  // each worker room for the full solve so event counts are exact.
  obs::Recorder rec(std::size_t{1} << 19);
  MilpOptions o;
  o.num_threads = 4;
  o.recorder = &rec;
  o.time_limit_s = 300;
  const Solution s = solve_milp(hard_knapsack_fixture(50, 42), o);
  ASSERT_TRUE(s.optimal());
  EXPECT_EQ(s.threads_used, 4);
  EXPECT_GE(s.steals, 1);
  const obs::Trace trace = rec.trace();
  EXPECT_GE(trace.num_workers(), 2) << "events from at least two workers";
  EXPECT_GE(trace.count(obs::EventType::Steal), 1u);
  EXPECT_GE(trace.count(obs::EventType::Incumbent), 1u);
  EXPECT_GT(trace.count(obs::EventType::NodeOpen), 0u);
  // A ring may fill under this workload, but never silently: the merged
  // trace reports exactly what was lost.
  if (trace.dropped == 0) {
    EXPECT_EQ(trace.count(obs::EventType::Steal), static_cast<std::size_t>(s.steals));
  }
}

TEST(TelemetryTest, TracingDoesNotPerturbTheSearch) {
  // Off, on, off again: the search is the same whether or not a recorder is
  // attached, on a knapsack and on EPN tiny (whose tree runs all five phases
  // and the sampled kernel spans).
  const auto epn = domains::epn::make_problem(domains::epn::tiny_config());
  for (const Model& m : {knapsack_fixture(22, 99), compile(*epn).base_model()}) {
    MilpOptions off;
    off.num_threads = 1;
    obs::Recorder rec;
    MilpOptions on = off;
    on.recorder = &rec;
    const Solution a = solve_milp(m, off);
    const Solution b = solve_milp(m, on);
    const Solution c = solve_milp(m, off);
    ASSERT_TRUE(a.optimal());
    ASSERT_TRUE(b.optimal());
    ASSERT_GT(rec.trace().count(obs::EventType::NodeOpen), 0u);
    for (const Solution* other : {&b, &c}) {
      EXPECT_EQ(a.nodes_explored, other->nodes_explored);
      EXPECT_EQ(a.simplex_iterations, other->simplex_iterations);
      EXPECT_DOUBLE_EQ(a.objective, other->objective);
      EXPECT_EQ(a.x, other->x);
    }
  }
}

TEST(TelemetryTest, EachPhaseIsRecordedOnce) {
  // One region per phase: the span pair in the ring, the JSONL `phase`
  // event, the `milp.phase.<p>` timer and the Solution::phases mirror all
  // come from the same two clock reads, so the durations agree bit for bit.
  const auto epn = domains::epn::make_problem(domains::epn::tiny_config());
  obs::Recorder rec;
  MilpOptions o;
  o.num_threads = 1;
  o.recorder = &rec;
  const Solution s = solve_milp(compile(*epn).base_model(), o);
  ASSERT_TRUE(s.optimal());
  ASSERT_GT(s.nodes_explored, 1);  // the heuristic and tree phases ran

  std::ostringstream jsonl;
  rec.trace().write_jsonl(jsonl);
  const std::string text = jsonl.str();
  const std::vector<obs::Recorder::Span> spans = rec.spans();
  const struct {
    obs::SpanName name;
    const char* jsonl;
    const char* timer;
    double mirror;
  } phases[] = {
      {obs::SpanName::Presolve, "presolve", "presolve", s.phases.presolve},
      {obs::SpanName::RootLp, "root_lp", "root_lp", s.phases.root_lp},
      {obs::SpanName::Heuristic, "heuristic", "heuristic", s.phases.heuristic},
      {obs::SpanName::Tree, "tree", "tree", s.phases.tree},
      {obs::SpanName::MilpExtract, "extract", "extract", s.phases.extract},
  };
  for (const auto& p : phases) {
    SCOPED_TRACE(p.jsonl);
    std::size_t pairs = 0;
    double span_seconds = -1.0;
    for (const obs::Recorder::Span& sp : spans) {
      if (sp.name != obs::span_id(p.name)) continue;
      ++pairs;
      span_seconds = static_cast<double>(sp.ns1 - sp.ns0) * 1e-9;
    }
    EXPECT_EQ(pairs, 1u);
    const std::string line = std::string("\"type\":\"phase\",\"worker\":0,\"phase\":\"") +
                             p.jsonl + "\"}";
    const std::size_t first = text.find(line);
    EXPECT_NE(first, std::string::npos);
    EXPECT_EQ(text.find(line, first + 1), std::string::npos);
    const std::string timer = std::string("milp.phase.") + p.timer;
    EXPECT_EQ(s.metrics.at(timer + ".count"), 1.0);
    EXPECT_EQ(s.metrics.at(timer + ".seconds"), p.mirror);
    EXPECT_EQ(span_seconds, p.mirror);
  }
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

TEST(TelemetryTest, RefactorCausesSumToRefactors) {
  // Every refactorization has exactly one cause, so the per-cause counters
  // partition milp.refactors, in Solution::metrics and in the Prometheus
  // text alike. The knapsack's tree is capped: the partition holds at any
  // point of the search.
  const auto p = domains::epn::make_problem(domains::epn::tiny_config());
  const Model models[] = {compile(*p).base_model(), hard_knapsack_fixture(50, 42)};
  for (const Model& m : models) {
    const bool epn = &m == &models[0];
    obs::MetricsRegistry reg;
    MilpOptions o;
    o.num_threads = 1;
    o.max_nodes = 20'000;
    o.metrics = &reg;
    const Solution s = solve_milp(m, o);
    ASSERT_TRUE(s.has_incumbent);
    const std::string text = obs::prometheus_text(reg);
    double sum = 0.0;
    for (std::size_t c = 0; c < kRefactorCauses; ++c) {
      const std::string cause = to_string(static_cast<RefactorCause>(c));
      const auto it = s.metrics.find("milp.refactors." + cause);
      ASSERT_NE(it, s.metrics.end()) << cause;
      sum += it->second;
      EXPECT_NE(text.find("archex_milp_refactors_" + cause + "_total"), std::string::npos)
          << cause;
    }
    // The knapsack's one-row bases may never need one in the capped tree.
    if (epn) {
      EXPECT_GT(s.metrics.at("milp.refactors"), 0.0);
    }
    EXPECT_EQ(sum, s.metrics.at("milp.refactors"));
  }
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
