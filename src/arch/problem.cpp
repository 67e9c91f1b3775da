#include "arch/problem.hpp"

#include <algorithm>
#include <stdexcept>

#include "arch/compiled_model.hpp"
#include "arch/patterns/pattern.hpp"

namespace archex {

Problem::Problem(Library lib, ArchTemplate tmpl, obs::Recorder* recorder)
    : lib_(std::move(lib)), tmpl_(std::move(tmpl)),
      metrics_(std::make_unique<obs::MetricsRegistry>()), recorder_(recorder) {
  obs::Region encode(recorder_ != nullptr ? recorder_->main() : nullptr,
                     obs::span_id(obs::SpanName::Encode),
                     &metrics_->timer("arch.encode"), &encode_seconds_);
  adj_ = AdjacencyMatrix(tmpl_, model_);
  map_ = LibraryMapping(tmpl_, lib_, model_);

  // Instantiation binaries and linking: delta_j = OR(incident edges).
  delta_.reserve(tmpl_.num_nodes());
  for (std::size_t j = 0; j < tmpl_.num_nodes(); ++j) {
    delta_.push_back(model_.add_binary("delta(" + tmpl_.node(static_cast<NodeId>(j)).name + ")"));
  }
  for (std::size_t j = 0; j < tmpl_.num_nodes(); ++j) {
    const NodeId v = static_cast<NodeId>(j);
    milp::LinExpr incident;
    std::size_t deg = 0;
    for (std::int32_t e : adj_.in_edges(v)) {
      incident += milp::LinExpr(adj_.edge(e).var);
      ++deg;
    }
    for (std::int32_t e : adj_.out_edges(v)) {
      incident += milp::LinExpr(adj_.edge(e).var);
      ++deg;
    }
    const std::string& nm = tmpl_.node(v).name;
    if (deg == 0) {
      // No candidate edges: the node can never be used.
      model_.add_constraint(milp::LinExpr(delta_[j]) == milp::LinExpr(0.0),
                            "isolated(" + nm + ")");
      continue;
    }
    // e <= delta per incident edge (any edge forces instantiation). This is
    // the disaggregated form of sum(e) <= deg * delta: same integer
    // solutions, but a much tighter LP relaxation (a fractional edge cannot
    // buy a component at a fraction of its cost).
    for (std::int32_t e : adj_.in_edges(v)) {
      model_.add_constraint(milp::LinExpr(adj_.edge(e).var) - milp::LinExpr(delta_[j]),
                            milp::Sense::LE, 0.0, "use(" + nm + ")");
    }
    for (std::int32_t e : adj_.out_edges(v)) {
      model_.add_constraint(milp::LinExpr(adj_.edge(e).var) - milp::LinExpr(delta_[j]),
                            milp::Sense::LE, 0.0, "use(" + nm + ")");
    }
    // delta <= sum(e)  (no instantiation without at least one edge)
    model_.add_constraint(milp::LinExpr(delta_[j]) - incident, milp::Sense::LE, 0.0,
                          "use_lb(" + nm + ")");

    // Mapping constraints (3a)+(3b), new encoding: sum_i m_ij = delta_j.
    milp::LinExpr msum;
    for (const LibraryMapping::Candidate& c : map_.candidates(v)) {
      msum += milp::LinExpr(c.var);
    }
    if (map_.candidates(v).empty()) {
      // No implementation available: the node can never be instantiated.
      model_.add_constraint(milp::LinExpr(delta_[j]) == milp::LinExpr(0.0),
                            "unimplementable(" + nm + ")");
    } else {
      model_.add_constraint(msum - milp::LinExpr(delta_[j]), milp::Sense::EQ, 0.0,
                            "map(" + nm + ")");
    }
  }
  label_new_rows("structural");
  encode.stop();
  pattern_costs_.push_back({"structural", encode_seconds_});
}

void Problem::label_new_rows(const std::string& label) {
  if (row_origin_.size() >= model_.num_constraints()) return;
  auto it = std::find(row_labels_.begin(), row_labels_.end(), label);
  if (it == row_labels_.end()) {
    row_labels_.push_back(label);
    it = std::prev(row_labels_.end());
  }
  const auto idx = static_cast<std::int32_t>(it - row_labels_.begin());
  row_origin_.resize(model_.num_constraints(), idx);
}

const std::string& Problem::origin_of_row(std::size_t row) const {
  static const std::string kUnknown = "unattributed";
  if (row >= row_origin_.size()) return kUnknown;
  return row_labels_[static_cast<std::size_t>(row_origin_[row])];
}

milp::LinExpr Problem::in_degree(NodeId v, const NodeFilter& from) const {
  milp::LinExpr e;
  for (std::int32_t idx : adj_.in_edges(v)) {
    const AdjacencyMatrix::Edge& edge = adj_.edge(idx);
    if (from.matches(tmpl_.node(edge.from))) e += milp::LinExpr(edge.var);
  }
  return e;
}

milp::LinExpr Problem::out_degree(NodeId v, const NodeFilter& to) const {
  milp::LinExpr e;
  for (std::int32_t idx : adj_.out_edges(v)) {
    const AdjacencyMatrix::Edge& edge = adj_.edge(idx);
    if (to.matches(tmpl_.node(edge.to))) e += milp::LinExpr(edge.var);
  }
  return e;
}

milp::LinExpr Problem::subtype_indicator(NodeId j, const std::string& subtype) const {
  milp::LinExpr e;
  for (const LibraryMapping::Candidate& c : map_.candidates(j)) {
    if (lib_.at(c.lib).subtype == subtype) e += milp::LinExpr(c.var);
  }
  return e;
}

FlowCommodity& Problem::flow(const std::string& name, double cap) {
  auto it = flows_.find(name);
  if (it != flows_.end()) return it->second;

  FlowCommodity f;
  f.name = name;
  f.capacity = cap;
  f.edge_vars.reserve(adj_.num_edges());
  for (const AdjacencyMatrix::Edge& e : adj_.edges()) {
    const std::string vn = "f[" + name + "](" + tmpl_.node(e.from).name + "," +
                           tmpl_.node(e.to).name + ")";
    const milp::VarId fv = model_.add_continuous(0.0, cap, vn);
    // Coupling: lambda_e <= cap * e  (flow only on active edges).
    model_.add_constraint(milp::LinExpr(fv) - cap * e.var, milp::Sense::LE, 0.0,
                          "cap[" + name + "](" + vn + ")");
    f.edge_vars.push_back(fv);
  }
  label_new_rows("flow(" + name + ")");
  return flows_.emplace(name, std::move(f)).first->second;
}

const FlowCommodity* Problem::find_flow(const std::string& name) const {
  const auto it = flows_.find(name);
  return it == flows_.end() ? nullptr : &it->second;
}

milp::LinExpr Problem::flow_in(const FlowCommodity& f, NodeId v) const {
  milp::LinExpr e;
  for (std::int32_t idx : adj_.in_edges(v)) {
    e += milp::LinExpr(f.edge_vars[static_cast<std::size_t>(idx)]);
  }
  return e;
}

milp::LinExpr Problem::flow_out(const FlowCommodity& f, NodeId v) const {
  milp::LinExpr e;
  for (std::int32_t idx : adj_.out_edges(v)) {
    e += milp::LinExpr(f.edge_vars[static_cast<std::size_t>(idx)]);
  }
  return e;
}

void Problem::apply(const Pattern& pattern) {
  std::string desc = pattern.describe();
  // One region per application: the always-on wall-clock charge the perf
  // report aggregates and, when recording, a span under the pattern's name
  // (interned once here — never from a hot loop).
  double secs = 0.0;
  obs::Region region(recorder_ != nullptr ? recorder_->main() : nullptr,
                     recorder_ != nullptr ? recorder_->intern(desc) : 0, nullptr, &secs);
  pattern.emit(*this);
  region.stop();
  patterns_applied_.push_back(desc);
  // Rows emitted during this pattern (minus any flow-coupling rows flow()
  // already claimed) are attributed to the pattern.
  label_new_rows(desc);
  pattern_costs_.push_back({std::move(desc), secs});
}

void Problem::apply(const std::shared_ptr<Pattern>& pattern) { apply(*pattern); }

std::vector<NodeId> Problem::source_nodes() const {
  if (func_flow_.empty()) return {};
  return tmpl_.select(NodeFilter::of_type(func_flow_.front()));
}

std::vector<NodeId> Problem::sink_nodes() const {
  if (func_flow_.empty()) return {};
  return tmpl_.select(NodeFilter::of_type(func_flow_.back()));
}

double Problem::path_fail_prob_estimate() const {
  double p = 0.0;
  for (const std::string& type : func_flow_) {
    p += lib_.max_attr(type, attr::kFailProb);
  }
  return p;
}

std::size_t Problem::add_symmetry_breaking() {
  // Two nodes are interchangeable if swapping them is an automorphism of the
  // labeled candidate-edge structure: identical specs (minus the name) and,
  // for every third node x, (u,x) allowed iff (v,x) allowed and (x,u) iff
  // (x,v); plus (u,v) allowed iff (v,u).
  auto swappable = [&](NodeId u, NodeId v) {
    const NodeSpec& a = tmpl_.node(u);
    const NodeSpec& b = tmpl_.node(v);
    if (a.type != b.type || a.subtype != b.subtype || a.tags != b.tags || a.impl != b.impl) {
      return false;
    }
    if (tmpl_.edge_allowed(u, v) != tmpl_.edge_allowed(v, u)) return false;
    for (std::size_t x = 0; x < tmpl_.num_nodes(); ++x) {
      const NodeId w = static_cast<NodeId>(x);
      if (w == u || w == v) continue;
      if (tmpl_.edge_allowed(u, w) != tmpl_.edge_allowed(v, w)) return false;
      if (tmpl_.edge_allowed(w, u) != tmpl_.edge_allowed(w, v)) return false;
    }
    return true;
  };

  std::size_t pairs = 0;
  std::vector<bool> chained(tmpl_.num_nodes(), false);
  for (std::size_t i = 0; i < tmpl_.num_nodes(); ++i) {
    if (chained[i]) continue;
    NodeId prev = static_cast<NodeId>(i);
    for (std::size_t j = i + 1; j < tmpl_.num_nodes(); ++j) {
      if (chained[j]) continue;
      const NodeId cand = static_cast<NodeId>(j);
      if (!swappable(prev, cand)) continue;
      model_.add_constraint(
          milp::LinExpr(delta_[static_cast<std::size_t>(prev)]) -
              milp::LinExpr(delta_[static_cast<std::size_t>(cand)]),
          milp::Sense::GE, 0.0,
          "sym(" + tmpl_.node(prev).name + ">=" + tmpl_.node(cand).name + ")");
      chained[j] = true;
      prev = cand;
      ++pairs;
    }
  }
  label_new_rows("symmetry-breaking");
  return pairs;
}

void Problem::add_cost_term(milp::LinExpr term, double weight) {
  extra_cost_.emplace_back(std::move(term), weight);
}

void Problem::set_edge_cost(NodeId from, NodeId to, double cost) {
  for (std::size_t i = 0; i < adj_.num_edges(); ++i) {
    const AdjacencyMatrix::Edge& e = adj_.edge(static_cast<std::int32_t>(i));
    if (e.from == from && e.to == to) {
      edge_cost_override_[static_cast<std::int32_t>(i)] = cost;
      return;
    }
  }
  throw std::invalid_argument("Problem::set_edge_cost: not a candidate edge");
}

milp::LinExpr Problem::cost_expression() const {
  milp::LinExpr cost;
  // Component costs via the mapping: sum_ij m_ij * c_i.
  for (std::size_t j = 0; j < tmpl_.num_nodes(); ++j) {
    for (const LibraryMapping::Candidate& c : map_.candidates(static_cast<NodeId>(j))) {
      cost.add_term(c.var, lib_.at(c.lib).cost());
    }
  }
  // Edge (connection element) costs: sum e_ij * c~_ij.
  for (std::size_t i = 0; i < adj_.num_edges(); ++i) {
    cost.add_term(adj_.edge(static_cast<std::int32_t>(i)).var,
                  edge_base_cost(static_cast<std::int32_t>(i)));
  }
  // Extra weighted concerns.
  for (const auto& [term, w] : extra_cost_) {
    milp::LinExpr t = term;
    t *= w;
    cost += t;
  }
  return cost;
}

ExplorationResult Problem::solve(const milp::MilpOptions& options) {
  // The MILP engine reports into this problem's registry unless the caller
  // routed it elsewhere, so encode / solve / extract share one namespace.
  milp::MilpOptions opts = options;
  if (opts.metrics == nullptr) opts.metrics = metrics_.get();
  if (opts.recorder == nullptr) opts.recorder = recorder_;

  // Thin facade over the compiled pipeline (arch/compiled_model.hpp):
  // compile the frozen artifact, then solve the base (empty) scenario. The
  // objective is still assembled onto this Problem's own model so callers
  // inspecting model().objective() after solve() keep seeing it.
  double compile_seconds = 0.0;
  CompiledModel cm = [&] {
    const obs::Region compile_region(
        opts.recorder != nullptr ? opts.recorder->main() : nullptr,
        obs::span_id(obs::SpanName::Compile), &opts.metrics->timer("arch.compile"),
        &compile_seconds);
    model_.set_objective(cost_expression(), milp::ObjectiveSense::Minimize);
    return compile(*this);
  }();

  ExplorationResult res = archex::solve(cm, Scenario{}, opts);
  res.encode_seconds = encode_seconds_;
  res.formulation_seconds += compile_seconds;
  if (res.solution.status == milp::SolveStatus::Infeasible && diagnoser_) {
    const obs::Region diagnose(&opts.metrics->timer("arch.diagnose"));
    res.infeasibility_explanation = diagnoser_(*this);
    // Re-snapshot so the diagnose timer lands next to the solver's metrics.
    res.solution.metrics = opts.metrics->snapshot();
  }
  return res;
}

Architecture Problem::extract(const milp::Solution& sol) const {
  Architecture arch;
  arch.nodes.resize(tmpl_.num_nodes());
  for (std::size_t j = 0; j < tmpl_.num_nodes(); ++j) {
    const NodeSpec& spec = tmpl_.node(static_cast<NodeId>(j));
    Architecture::Node& n = arch.nodes[j];
    n.name = spec.name;
    n.type = spec.type;
    n.subtype = spec.subtype;
    n.tags = spec.tags;
    n.used = sol.value(delta_[j]) > 0.5;
    if (n.used) {
      for (const LibraryMapping::Candidate& c : map_.candidates(static_cast<NodeId>(j))) {
        if (sol.value(c.var) > 0.5) {
          n.impl = c.lib;
          n.impl_name = lib_.at(c.lib).name;
          break;
        }
      }
    }
  }
  for (const AdjacencyMatrix::Edge& e : adj_.edges()) {
    if (sol.value(e.var) > 0.5) arch.edges.emplace_back(e.from, e.to);
  }
  arch.cost = cost_expression().evaluate(sol.x);
  for (const auto& [name, f] : flows_) {
    std::vector<FlowEdge> active;
    for (std::size_t i = 0; i < f.edge_vars.size(); ++i) {
      const double rate = sol.value(f.edge_vars[i]);
      if (rate > 1e-6) {
        const AdjacencyMatrix::Edge& e = adj_.edge(static_cast<std::int32_t>(i));
        active.push_back({e.from, e.to, rate});
      }
    }
    if (!active.empty()) arch.flows.emplace(name, std::move(active));
  }
  return arch;
}

}  // namespace archex
