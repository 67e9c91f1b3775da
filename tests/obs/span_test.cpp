/// Unit tests for the spans of the record stream (obs/recorder.hpp): Region
/// nesting, cross-worker merge ordering, the drop-newest overflow policy
/// (including the per-solve milp.records_dropped delta across a reused
/// recorder), the zero-cost disabled path, the Chrome trace-event export,
/// the Prometheus exposition, and the per-pattern cost-attribution report on
/// a real EPN encode.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "arch/perf_report.hpp"
#include "domains/epn.hpp"
#include "milp/branch_bound.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace archex::obs {
namespace {

TEST(SpanTest, NullRingIsANoOp) {
  Region null_span(nullptr, span_id(SpanName::Ftran));
  null_span.stop();  // must not crash
  Recorder rec(/*capacity_per_worker=*/0);
  {
    const Region span(rec.main(), span_id(SpanName::Ftran));
  }
  EXPECT_TRUE(rec.main()->records().empty());
  EXPECT_TRUE(rec.spans().empty());
}

TEST(SpanTest, NestedScopesRecordDepthAndContainment) {
  Recorder rec;
  Ring* ring = rec.main();
  ASSERT_NE(ring, nullptr);
  {
    const Region outer(ring, span_id(SpanName::Encode));
    {
      const Region inner(ring, span_id(SpanName::Presolve));
    }
    {
      const Region inner2(ring, span_id(SpanName::Solve));
    }
  }
  // The ring holds begin/end records in program order...
  const std::vector<Record>& raw = ring->records();
  ASSERT_EQ(raw.size(), 6u);
  EXPECT_EQ(raw[0].type, EventType::SpanBegin);
  EXPECT_EQ(raw[0].id, span_id(SpanName::Encode));
  EXPECT_EQ(raw[2].type, EventType::SpanEnd);
  EXPECT_EQ(raw[2].id, span_id(SpanName::Presolve));
  EXPECT_EQ(raw[5].type, EventType::SpanEnd);
  EXPECT_EQ(raw[5].id, span_id(SpanName::Encode));
  // ...and spans() pairs them, parent first, with nesting depth.
  const std::vector<Recorder::Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, span_id(SpanName::Encode));
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, span_id(SpanName::Presolve));
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, span_id(SpanName::Solve));
  EXPECT_EQ(spans[2].depth, 1);
  // Containment: every child lies inside the parent's [ns0, ns1].
  const Recorder::Span& parent = spans[0];
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].ns0, parent.ns0);
    EXPECT_LE(spans[i].ns1, parent.ns1);
  }
}

TEST(SpanTest, StopClosesEarlyAndDestructorRecordsNothingFurther) {
  Recorder rec;
  Ring* ring = rec.main();
  {
    Region span(ring, span_id(SpanName::RootLp));
    span.stop();
    ASSERT_EQ(ring->records().size(), 2u);
  }
  EXPECT_EQ(ring->records().size(), 2u);
  EXPECT_EQ(rec.spans().size(), 1u);
}

TEST(SpanTest, SpansMergeWorkersInStartTimeOrder) {
  Recorder rec;
  rec.arm_workers(3);
  ASSERT_EQ(rec.num_workers(), 3);
  // Interleave spans across workers so no single ring is globally ordered.
  for (int round = 0; round < 2; ++round) {
    for (int w = 0; w < 3; ++w) {
      const Region span(rec.ring(w), span_id(SpanName::Ftran));
    }
  }
  const std::vector<Recorder::Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 6u);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].ns0, spans[i].ns0) << "slot " << i;
  }
  // All three workers are represented with their own id.
  std::vector<int> seen(3, 0);
  for (const Recorder::Span& s : spans) {
    ASSERT_GE(s.worker, 0);
    ASSERT_LT(s.worker, 3);
    ++seen[static_cast<std::size_t>(s.worker)];
  }
  for (int w = 0; w < 3; ++w) EXPECT_EQ(seen[static_cast<std::size_t>(w)], 2);
}

TEST(SpanTest, OverflowDropsNewestAndCounts) {
  // Four slots: two closed spans fit (begin + end each), the rest drop.
  Recorder rec(/*capacity_per_worker=*/4);
  Ring* ring = rec.main();
  for (int i = 0; i < 5; ++i) {
    const Region span(ring, span_id(SpanName::PriceRow));
  }
  EXPECT_EQ(ring->records().size(), 4u);  // oldest two spans kept (drop-newest)
  EXPECT_EQ(rec.dropped(), 3);
  // take_dropped() hands out the delta exactly once.
  EXPECT_EQ(rec.take_dropped(), 3);
  EXPECT_EQ(rec.take_dropped(), 0);
  ring->emit(EventType::NodeOpen, 1);  // point events obey the same policy
  EXPECT_EQ(rec.take_dropped(), 1);
  EXPECT_EQ(rec.dropped(), 4);  // the total, not the delta
  EXPECT_EQ(rec.trace().dropped, 4);
}

TEST(SpanTest, OpenSpanHoldsRoomForItsEnd) {
  // A begin is accepted only with room for its end, so nesting stays well
  // formed however the ring fills: the outer span takes two of three slots
  // (its begin and its held end), the inner span then cannot fit, a point
  // event still can, and the outer end still lands.
  Recorder rec(/*capacity_per_worker=*/3);
  Ring* ring = rec.main();
  {
    const Region outer(ring, span_id(SpanName::Tree));
    const Region inner(ring, span_id(SpanName::Ftran));
    ring->emit(EventType::NodeOpen, 1);
    EXPECT_EQ(ring->records().size(), 2u);
  }
  ASSERT_EQ(ring->records().size(), 3u);
  EXPECT_EQ(ring->records()[1].type, EventType::NodeOpen);
  EXPECT_EQ(ring->records()[2].type, EventType::SpanEnd);
  EXPECT_EQ(ring->records()[2].id, span_id(SpanName::Tree));
  EXPECT_EQ(rec.dropped(), 1);  // the inner span; the point event fit
}

TEST(SpanTest, InternIsIdempotentAndPreInternsEnumNames) {
  Recorder rec;
  // The enum value is the id for every fixed name.
  for (std::int32_t i = 0; i < span_id(SpanName::kCount); ++i) {
    EXPECT_EQ(rec.name_of(i), to_string(static_cast<SpanName>(i)));
  }
  const std::int32_t a = rec.intern("cannot_connect(A, B)");
  const std::int32_t b = rec.intern("cannot_connect(A, B)");
  EXPECT_EQ(a, b);
  EXPECT_GE(a, span_id(SpanName::kCount));
  EXPECT_EQ(rec.name_of(a), "cannot_connect(A, B)");
  EXPECT_EQ(rec.name_of(9999), "?");
}

TEST(SpanTest, DisabledSpansAreEffectivelyFree) {
  // 1M disabled regions must complete in far less than the time even a
  // single clock read per region would cost. The generous bound (1s) keeps
  // the test meaningful without being flaky on loaded CI machines: 1M
  // clock-reading regions take well over 1s only when the disabled path is
  // broken enough to actually read clocks; a null test per region finishes
  // in ~ms.
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1'000'000; ++i) {
    const Region span(nullptr, span_id(SpanName::Ftran));
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(secs, 1.0);
}

TEST(SpanTest, ChromeTraceExportIsWellFormed) {
  Recorder rec;
  rec.arm_workers(2);
  {
    const Region outer(rec.main(), span_id(SpanName::Solve));
    const Region inner(rec.ring(1), span_id(SpanName::Ftran));
    rec.main()->emit(EventType::NodeOpen, 1);  // point events stay out
  }
  std::ostringstream os;
  rec.write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find_last_not_of('\n'), json.size() - 2);
  EXPECT_EQ(json[json.size() - 2], '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ftran\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_EQ(json.find("node_open"), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\":0"), std::string::npos);
}

TEST(SpanTest, SolveMilpCountsDroppedRecordsPerSolve) {
  using namespace archex::milp;
  // Tiny binary model, solved twice into one deliberately tiny recorder so
  // the overflow accounting path is exercised end to end: each solve's
  // `milp.records_dropped` is its own delta, not the recorder's total.
  Model m;
  LinExpr obj;
  LinExpr row;
  for (int j = 0; j < 6; ++j) {
    VarId v = m.add_binary();
    obj += (1.0 + 0.5 * j) * v;
    row += 1.0 * v;
  }
  m.add_constraint(std::move(row), Sense::GE, 3.0);
  m.set_objective(obj, ObjectiveSense::Minimize);

  Recorder rec(/*capacity_per_worker=*/4);
  MilpOptions opts;
  opts.num_threads = 1;
  opts.recorder = &rec;
  const Solution first = solve_milp(m, opts);
  EXPECT_EQ(first.status, SolveStatus::Optimal);
  EXPECT_GT(rec.spans().size(), 0u);
  const std::int64_t after_first = rec.dropped();
  EXPECT_GT(after_first, 0);
  EXPECT_EQ(first.metrics.at("milp.records_dropped"), static_cast<double>(after_first));

  const Solution second = solve_milp(m, opts);
  EXPECT_EQ(second.status, SolveStatus::Optimal);
  EXPECT_GT(rec.dropped(), after_first);
  EXPECT_EQ(second.metrics.at("milp.records_dropped"),
            static_cast<double>(rec.dropped() - after_first));
}

TEST(SpanTest, ParallelSolveRecordsSpansFromMultipleWorkers) {
  using namespace archex::milp;
  // A tree big enough that both pool workers run node LPs: each worker
  // writes its own ring concurrently, which is exactly what the tsan CI
  // slice needs to see (single-writer discipline — arm before spawn, export
  // after join).
  Model m;
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> w(10, 30);
  LinExpr tw, tv;
  double cap = 0.0;
  for (int j = 0; j < 30; ++j) {
    VarId v = m.add_binary();
    const int wj = w(rng);
    tw += static_cast<double>(wj) * v;
    tv += (static_cast<double>(wj) + 5.0 + 0.1 * (j % 7)) * v;
    cap += wj;
  }
  m.add_constraint(std::move(tw), Sense::LE, 0.5 * cap);
  m.set_objective(tv, ObjectiveSense::Maximize);

  Recorder rec;
  MilpOptions opts;
  opts.num_threads = 2;
  opts.recorder = &rec;
  const Solution sol = solve_milp(m, opts);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_GE(rec.num_workers(), 2);
  bool worker1 = false;
  for (const Recorder::Span& s : rec.spans()) worker1 |= s.worker == 1;
  EXPECT_TRUE(worker1) << "no spans from pool worker 1";
}

TEST(MetricsTest, SnapshotAndPrometheusExposeTimerMax) {
  MetricsRegistry reg;
  Timer& t = reg.timer("phase");
  t.record(1'000'000'000);  // 1s
  t.record(3'000'000'000);  // 3s  <- the max
  t.record(2'000'000'000);  // 2s
  const auto snap = reg.snapshot();
  EXPECT_NEAR(snap.at("phase.seconds"), 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.at("phase.count"), 3.0);
  EXPECT_NEAR(snap.at("phase.max"), 3.0, 1e-9);

  reg.counter("milp.nodes").add(41);
  reg.gauge("gap").set(0.125);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE archex_milp_nodes_total counter\n"
                      "archex_milp_nodes_total 41\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE archex_gap gauge\narchex_gap 0.125\n"),
            std::string::npos);
  EXPECT_NE(text.find("archex_phase_seconds_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("archex_phase_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("archex_phase_max_seconds 3\n"), std::string::npos);
}

TEST(PerfReportTest, EpnEncodeAttributionIsNearComplete) {
  using namespace archex::domains::epn;
  Recorder rec;
  EpnConfig cfg = small_config();
  cfg.reliability_eager = false;  // keep the solve cheap; encode is the point
  auto problem = make_problem(cfg, &rec);

  // Every encode path charges a named label, so attribution is complete.
  const PerfReport pre = build_perf_report(*problem, milp::Solution{});
  EXPECT_GT(pre.encode_total_seconds, 0.0);
  EXPECT_GE(pre.attributed_fraction, 0.9);
  EXPECT_GT(pre.rows.size(), 1u);
  bool structural = false;
  for (const PatternCostRow& r : pre.rows) structural |= r.label == "structural";
  EXPECT_TRUE(structural);

  // And the recorder saw the structural encode first, then one span per
  // pattern application.
  const std::vector<Recorder::Span> spans = rec.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].name, span_id(SpanName::Encode));
  std::size_t pattern_spans = 0;
  for (const Recorder::Span& s : spans) {
    if (s.name >= span_id(SpanName::kCount)) ++pattern_spans;
  }
  EXPECT_EQ(pattern_spans, problem->num_patterns_applied());

  // Solving end to end fills in rows / presolve / simplex-share columns and
  // the report renders with the documented header.
  milp::MilpOptions opts;
  opts.time_limit_s = 60.0;
  opts.num_threads = 1;
  ExplorationResult res = problem->solve(opts);
  ASSERT_TRUE(res.feasible());
  const PerfReport post = build_perf_report(*problem, res.solution);
  EXPECT_GE(post.attributed_fraction, 0.9);
  EXPECT_EQ(post.model_rows, problem->model().num_constraints());
  EXPECT_LE(post.surviving_rows, post.model_rows);
  double share = 0.0;
  std::size_t rows_sum = 0;
  for (const PatternCostRow& r : post.rows) {
    share += r.simplex_share;
    rows_sum += r.rows;
  }
  EXPECT_EQ(rows_sum, post.model_rows);
  EXPECT_NEAR(share, 1.0, 1e-9);
  std::ostringstream os;
  write_perf_report(os, post);
  EXPECT_NE(os.str().find("per-pattern cost attribution"), std::string::npos);
  EXPECT_NE(os.str().find("structural"), std::string::npos);
}

}  // namespace
}  // namespace archex::obs
