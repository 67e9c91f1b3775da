#include "arch/algorithm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "arch/patterns/general.hpp"
#include "graph/digraph.hpp"
#include "reliability/reliability.hpp"

namespace archex {

namespace {

/// Vertex-disjoint source->sink paths in a concrete architecture, counting
/// sources as capacity-1 (a shared generator is a shared failure point).
int measured_disjoint_paths(const Architecture& arch, const std::vector<NodeId>& sources,
                            NodeId sink) {
  const graph::Digraph g = arch.to_digraph();
  std::vector<int> cap(g.num_nodes(), 1);
  cap[static_cast<std::size_t>(sink)] = 1'000'000;
  return graph::max_flow_unit_nodes(g, sources, sink, cap);
}

}  // namespace

std::map<std::string, double> analyze_reliability(const Problem& p, const Architecture& arch,
                                                  const ReliabilityRequirement& req) {
  const graph::Digraph g = arch.to_digraph();
  const std::vector<double> fail = arch.node_fail_probs(p.library());
  const std::vector<NodeId> sources = p.arch_template().select(req.sources);

  std::map<std::string, double> out;
  for (NodeId sink : p.arch_template().select(req.sinks)) {
    out[p.arch_template().node(sink).name] =
        reliability::link_failure_probability(g, sources, sink, fail);
  }
  return out;
}

LazyResult solve_lazy(Problem& p, const std::vector<ReliabilityRequirement>& requirements,
                      const LazyOptions& options) {
  using Clock = std::chrono::steady_clock;
  LazyResult result;

  // Current learned requirement per (requirement index, sink node).
  std::map<std::pair<std::size_t, NodeId>, int> learned;

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    const auto t0 = Clock::now();
    ExplorationResult er = p.solve(options.milp);
    const double secs = std::chrono::duration<double>(Clock::now() - t0).count();

    LazyIteration snap;
    snap.index = iter;
    snap.stats = er.stats;
    snap.solve_seconds = secs;

    if (!er.feasible()) {
      // The learned constraints made the problem infeasible: report and stop.
      result.final_result = std::move(er);
      result.iterations.push_back(std::move(snap));
      return result;
    }
    snap.cost = er.architecture.cost;
    snap.architecture = er.architecture;

    // Exact analysis of every requirement; collect violations.
    bool all_met = true;
    bool can_strengthen = false;
    for (std::size_t r = 0; r < requirements.size(); ++r) {
      const ReliabilityRequirement& req = requirements[r];
      const std::vector<NodeId> sources = p.arch_template().select(req.sources);
      for (const auto& [sink_name, prob] : analyze_reliability(p, er.architecture, req)) {
        snap.sink_fail_prob[sink_name] = std::max(snap.sink_fail_prob[sink_name], prob);
        const NodeId sink = p.arch_template().find(sink_name);
        const auto key = std::make_pair(r, sink);
        if (auto it = learned.find(key); it != learned.end()) {
          snap.required_paths[sink_name] =
              std::max(snap.required_paths[sink_name], it->second);
        }
        if (prob <= req.threshold) continue;
        all_met = false;

        // Conflict-driven learning: the current configuration provides d
        // disjoint source paths; require d+1 from now on (strictly more
        // than both the measured redundancy and anything learned before).
        const int measured = measured_disjoint_paths(er.architecture, sources, sink);
        int& k = learned[key];
        k = std::max({k + 1, measured + 1, 1});
        if (k <= options.max_path_requirement) {
          can_strengthen = true;
          patterns::emit_disjoint_paths(p, sources, sink, k, /*disjoint_sources=*/true,
                                        "lazy" + std::to_string(r) + "i" + std::to_string(k));
          snap.required_paths[sink_name] = k;
        }
      }
    }

    result.iterations.push_back(snap);
    if (all_met) {
      result.converged = true;
      result.final_result = std::move(er);
      return result;
    }
    if (!can_strengthen) {
      // Redundancy ceiling reached without meeting the threshold.
      result.final_result = std::move(er);
      return result;
    }
  }

  if (!result.iterations.empty()) {
    // Ran out of iterations: report the last architecture found.
    result.final_result.architecture = result.iterations.back().architecture;
  }
  return result;
}

IterativeResult solve_iteratively(Problem& p, const AnalysisFn& analyze, const LearnFn& learn,
                                  const milp::MilpOptions& milp_options, int max_iterations) {
  using Clock = std::chrono::steady_clock;
  IterativeResult result;

  // One monotonic deadline for the whole scheme, not a fresh budget per
  // iteration: a relative budget restarted at every re-solve would let a
  // learning loop with a 30 s budget legally run for minutes. The tighter of
  // `budget` and its deprecated `time_limit_s` alias becomes an absolute
  // deadline once, here, and both relative knobs are disarmed; a
  // caller-supplied absolute deadline (serve requests) already spans
  // iterations and wins if tighter.
  milp::MilpOptions opts = milp_options;
  opts.deadline = std::min(
      opts.deadline,
      milp::Budget::tighter(opts.budget, milp::Budget::of_seconds(opts.time_limit_s))
          .deadline_from(Clock::now()));
  opts.budget = milp::Budget::unlimited();
  opts.time_limit_s = std::numeric_limits<double>::infinity();

  for (int iter = 1; iter <= max_iterations; ++iter) {
    const auto t0 = Clock::now();
    // Re-solves (iteration >= 2) are sliced to a quarter of the remaining
    // budget: a learned model that cannot be closed would otherwise run to
    // the overall deadline and starve every iteration after it. The solver
    // keeps its best incumbent at the slice boundary, which is all the
    // analysis and learning steps consume, and a stalled re-solve therefore
    // costs at most 25% of what is left. Iteration 1 is exempt — a scheme
    // that converges immediately keeps single-solve semantics — and the
    // overall deadline still bounds everything.
    milp::MilpOptions iter_opts = opts;
    if (iter > 1 && opts.deadline != Clock::time_point::max() && t0 < opts.deadline) {
      iter_opts.deadline = t0 + (opts.deadline - t0) / 4;
    }
    ExplorationResult er = p.solve(iter_opts);

    IterativeStep step;
    step.index = iter;
    step.stats = er.stats;
    step.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

    if (!er.feasible()) {
      // Either the learned constraints made the problem infeasible or the
      // solve budget ran out without an incumbent — stop, reporting honestly.
      // Anytime fallback: when the stop was a budget (not infeasibility) and
      // an earlier iteration produced an architecture, surface that
      // architecture with its own cost instead of an empty result. The
      // status stays TimeLimit/NodeLimit, so callers (and the serve layer's
      // degraded-response mapping) still see that the budget ran out before
      // the learned requirements were met.
      const bool budget_stop =
          er.solution.status == milp::SolveStatus::TimeLimit ||
          er.solution.status == milp::SolveStatus::NodeLimit ||
          er.solution.status == milp::SolveStatus::IterationLimit;
      if (budget_stop && !result.steps.empty()) {
        const IterativeStep& last = result.steps.back();
        er.architecture = last.architecture;
        er.solution.has_incumbent = true;
        er.solution.objective = last.cost;
      }
      result.final_result = std::move(er);
      result.steps.push_back(std::move(step));
      return result;
    }
    step.cost = er.architecture.cost;
    step.architecture = er.architecture;

    const AnalysisVerdict verdict = analyze(p, er.architecture);
    step.metrics = verdict.metrics;

    if (verdict.accepted) {
      result.steps.push_back(std::move(step));
      result.converged = true;
      result.final_result = std::move(er);
      return result;
    }
    const bool strengthened = learn(p, er.architecture);
    result.steps.push_back(std::move(step));
    if (!strengthened) {
      result.final_result = std::move(er);
      return result;
    }
  }
  if (!result.steps.empty()) {
    result.final_result.architecture = result.steps.back().architecture;
  }
  return result;
}

}  // namespace archex
