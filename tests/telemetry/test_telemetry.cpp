#include "src/telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/runtime/blocked_driver.hpp"
#include "src/telemetry/summary.hpp"
#include "src/util/rng.hpp"

namespace subsonic {
namespace telemetry {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/telemetry_" + name + "_" +
         std::to_string(::getpid());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

size_t count_occurrences(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(MetricsRegistry, CountersGaugesTimersRoundTrip) {
  MetricsRegistry reg;
  reg.counter(0, "steps").add(5);
  reg.counter(0, "steps").add(2);
  reg.counter(1, "transport.msgs_sent").add();
  reg.gauge(0, "transport.send_queue_depth").set(3.0);
  reg.gauge(0, "transport.send_queue_depth").set(1.0);
  reg.timer(0, "compute.fd_velocity").record(0.25);
  reg.timer(0, "compute.fd_velocity").record(0.75);

  EXPECT_EQ(reg.counter(0, "steps").value(), 7);
  EXPECT_EQ(reg.counter(1, "transport.msgs_sent").value(), 1);
  EXPECT_DOUBLE_EQ(reg.gauge(0, "transport.send_queue_depth").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge(0, "transport.send_queue_depth").max(), 3.0);
  const TimerStats t = reg.timer(0, "compute.fd_velocity").stats();
  EXPECT_EQ(t.count, 2);
  EXPECT_DOUBLE_EQ(t.total_s, 1.0);
  EXPECT_DOUBLE_EQ(t.min_s, 0.25);
  EXPECT_DOUBLE_EQ(t.max_s, 0.75);
  EXPECT_DOUBLE_EQ(t.mean_s(), 0.5);
}

// The registry is hammered from the drivers' worker threads and the
// transports' sender/service threads simultaneously; this test is the
// TSan canary for that pattern (same key from many threads, plus lazy
// creation racing lookups).
TEST(MetricsRegistry, ConcurrentAccessIsConsistent) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.counter(0, "shared.counter").add();
        reg.counter(t, "private.counter").add();
        reg.timer(0, "shared.timer").record(0.001);
        reg.gauge(0, "shared.gauge").set(static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(reg.counter(0, "shared.counter").value(), kThreads * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(reg.counter(t, "private.counter").value(), kIters);
  const TimerStats shared = reg.timer(0, "shared.timer").stats();
  EXPECT_EQ(shared.count, kThreads * kIters);
  EXPECT_NEAR(shared.total_s, 0.001 * kThreads * kIters, 1e-9);
  EXPECT_DOUBLE_EQ(reg.gauge(0, "shared.gauge").max(), kIters - 1);
}

TEST(ScopedSpan, NullSessionIsANoOpAndStopIsIdempotent) {
  ScopedSpan null_span(nullptr, 0, "compute.x", "compute", 1);
  EXPECT_DOUBLE_EQ(null_span.stop(), 0.0);

  Session session;
  ScopedSpan span(&session, 2, "compute.x", "compute", 1);
  const double first = span.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_DOUBLE_EQ(span.stop(), first);  // second stop changes nothing
  const TimerStats t = session.metrics().timer(2, "compute.x").stats();
  EXPECT_EQ(t.count, 1);
  EXPECT_DOUBLE_EQ(t.total_s, first);
}

TEST(ScopedSpan, RecordsTraceEventsOnlyWhenTracing) {
  Session off;  // default: no tracing
  { ScopedSpan span(&off, 0, "compute.x", "compute", 3); }
  EXPECT_EQ(off.trace().size(), 0u);

  SessionConfig cfg;
  cfg.trace = true;
  Session on(cfg);
  { ScopedSpan span(&on, 0, "compute.x", "compute", 3); }
  { ScopedSpan span(&on, 1, "comm.exchange", "comm", 3); }
  EXPECT_EQ(on.trace().size(), 2u);
}

TEST(Trace, ChromeJsonIsWellFormedAndMerges) {
  SessionConfig cfg;
  cfg.trace = true;
  Session a(cfg);
  SessionConfig cfg_b;
  cfg_b.trace = true;
  cfg_b.origin_ns = a.origin_ns();  // shared timeline, like forked ranks
  Session b(cfg_b);

  { ScopedSpan span(&a, 0, "compute.fd_velocity", "compute", 0); }
  { ScopedSpan span(&a, 0, "comm.exchange", "comm", 0); }
  { ScopedSpan span(&b, 1, "compute.fd_velocity", "compute", 0); }

  const std::string path_a = tmp_path("trace_a.json");
  const std::string path_b = tmp_path("trace_b.json");
  const std::string merged = tmp_path("trace_merged.json");
  a.write_trace_json(path_a);
  b.write_trace_json(path_b);
  merge_chrome_traces({path_a, path_b, tmp_path("missing.json")}, merged);

  const std::string text = slurp(merged);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // All three complete ("ph":"X") events survive the textual merge.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 3u);
  EXPECT_EQ(count_occurrences(text, "{"), count_occurrences(text, "}"));
  EXPECT_EQ(count_occurrences(text, "["), count_occurrences(text, "]"));

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(merged.c_str());
}

TEST(Trace, MergeSkipsTruncatedTracesAndStillLoads) {
  // A SIGKILLed rank can leave a half-written trace behind.  The merge
  // must skip it (with a warning) and still produce a loadable document
  // carrying everyone else's events — a dead rank never takes the whole
  // timeline with it.
  SessionConfig cfg;
  cfg.trace = true;
  Session good(cfg);
  { ScopedSpan span(&good, 0, "compute.fd_velocity", "compute", 0); }

  const std::string path_good = tmp_path("trace_good.json");
  const std::string path_torn = tmp_path("trace_torn.json");
  const std::string path_junk = tmp_path("trace_junk.json");
  const std::string merged = tmp_path("trace_merged_torn.json");
  good.write_trace_json(path_good);
  {
    // Cut a real trace off mid-stream: header present, array never
    // closed, final event torn.
    const std::string full = slurp(path_good);
    std::ofstream torn(path_torn, std::ios::binary);
    torn << full.substr(0, full.find("\"traceEvents\":[") + 20);
  }
  {
    std::ofstream junk(path_junk, std::ios::binary);
    junk << "not json at all";
  }

  merge_chrome_traces(
      {path_torn, path_good, path_junk, tmp_path("trace_missing.json")},
      merged);

  const std::string text = slurp(merged);
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // Only the intact trace's event survives, and the document stays
  // balanced (loadable by the trace viewer).
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 1u);
  EXPECT_EQ(count_occurrences(text, "{"), count_occurrences(text, "}"));
  EXPECT_EQ(count_occurrences(text, "["), count_occurrences(text, "]"));

  std::remove(path_good.c_str());
  std::remove(path_torn.c_str());
  std::remove(path_junk.c_str());
  std::remove(merged.c_str());
}

TEST(Summary, MetricsJsonlRoundTripsThroughAggregator) {
  Session session;
  MetricsRegistry& reg = session.metrics();
  reg.counter(0, "steps").add(10);
  reg.counter(0, "transport.doubles_sent").add(1234);
  reg.counter(2, "steps").add(10);
  reg.gauge(0, "transport.send_queue_depth").set(4.0);
  reg.gauge(0, "transport.send_queue_depth").set(2.0);
  reg.timer(0, "compute.lb_collide_stream").record(0.5);
  reg.timer(0, "comm.exchange").record(0.125);
  reg.timer(2, "compute.lb_collide_stream").record(0.25);

  const std::string path = tmp_path("metrics.jsonl");
  session.flush_metrics_delta(path);
  const std::vector<RankMetrics> ranks = read_metrics_jsonl(path);
  std::remove(path.c_str());

  ASSERT_EQ(ranks.size(), 2u);
  const RankMetrics& r0 = ranks[0].rank == 0 ? ranks[0] : ranks[1];
  const RankMetrics& r2 = ranks[0].rank == 2 ? ranks[0] : ranks[1];
  ASSERT_EQ(r0.rank, 0);
  ASSERT_EQ(r2.rank, 2);
  EXPECT_EQ(r0.counter_or("steps"), 10);
  EXPECT_EQ(r0.counter_or("transport.doubles_sent"), 1234);
  EXPECT_EQ(r0.counter_or("absent", -7), -7);
  EXPECT_DOUBLE_EQ(r0.gauges.at("transport.send_queue_depth").value, 2.0);
  EXPECT_DOUBLE_EQ(r0.gauges.at("transport.send_queue_depth").max, 4.0);
  EXPECT_DOUBLE_EQ(r0.t_calc(), 0.5);
  EXPECT_DOUBLE_EQ(r0.t_com(), 0.125);
  EXPECT_DOUBLE_EQ(r0.utilization(), 0.5 / 0.625);
  EXPECT_DOUBLE_EQ(r2.t_calc(), 0.25);
  EXPECT_DOUBLE_EQ(r2.t_com(), 0.0);

  // The live-registry snapshot agrees with the file round-trip.
  const RankMetrics live = collect_rank(reg, 0);
  EXPECT_EQ(live.counter_or("steps"), r0.counter_or("steps"));
  EXPECT_DOUBLE_EQ(live.t_calc(), r0.t_calc());
  EXPECT_DOUBLE_EQ(live.t_com(), r0.t_com());
}

TEST(Summary, TornAndGarbageLinesAreSkipped) {
  const std::string path = tmp_path("torn.jsonl");
  {
    std::ofstream out(path);
    out << "{\"kind\":\"counter\",\"rank\":0,\"name\":\"steps\","
           "\"value\":4}\n";
    out << "not json at all\n";
    out << "{\"kind\":\"timer\",\"rank\":0,\"name\":\"compute.x\","
           "\"count\":2,\"total_s\":1.5,\"min_s\":0.5,\"max_s\":1.0}\n";
    out << "{\"kind\":\"counter\",\"rank\":0,\"na";  // torn final line
  }
  const std::vector<RankMetrics> ranks = read_metrics_jsonl(path);
  std::remove(path.c_str());
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0].counter_or("steps"), 4);
  EXPECT_DOUBLE_EQ(ranks[0].t_calc(), 1.5);
}

TEST(Summary, MutatedMetricsLinesAreSkippedNotUndefined) {
  // read_metrics_jsonl parses bytes another process wrote.  Start from a
  // real snapshot and mutate it: truncate it at every byte, overwrite
  // seeded bytes, and splice out-of-range numbers into every numeric
  // field.  Every call must return, and no count it returns may be
  // negative: an out-of-range number or an overflowing sum skips its
  // line instead of converting with undefined behaviour.
  const std::string path = tmp_path("mutated.jsonl");
  Session session;
  MetricsRegistry& reg = session.metrics();
  reg.counter(0, "steps").add(12);
  reg.counter(0, "transport.msgs_sent").add(40);
  reg.gauge(0, "step").set(12);
  reg.timer(0, "compute.block_0").record(0.5);
  reg.histogram(0, "step.wall").record(1e-3);
  reg.histogram(0, "step.wall").record(2e-2);
  session.flush_metrics_delta(path);
  const std::string snapshot = slurp(path);
  ASSERT_FALSE(snapshot.empty());

  int mutants = 0, bad = 0;
  std::string first_bad;
  auto read_mutant = [&](const std::string& text) {
    { std::ofstream(path, std::ios::trunc) << text; }
    const std::vector<RankMetrics> ranks = read_metrics_jsonl(path);
    ++mutants;
    bool ok = true;
    for (const RankMetrics& rm : ranks) {
      for (const auto& [name, value] : rm.counters) ok = ok && value >= 0;
      for (const auto& [name, t] : rm.timers) ok = ok && t.count >= 0;
      for (const auto& [name, h] : rm.histograms) {
        ok = ok && h.count >= 0;
        for (long long b : h.buckets) ok = ok && b >= 0;
      }
    }
    if (!ok && bad++ == 0) first_bad = text;
    return ranks;
  };

  for (std::size_t n = 0; n <= snapshot.size(); ++n)
    read_mutant(snapshot.substr(0, n));

  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    std::string text = snapshot;
    for (std::uint64_t k = 1 + rng.below(4); k > 0; --k)
      text[rng.below(text.size())] = static_cast<char>(rng.below(256));
    read_mutant(text);
  }

  // Every numeric token: after ':' or inside a bucket array.
  std::vector<std::pair<std::size_t, std::size_t>> numbers;
  for (std::size_t i = 1; i < snapshot.size(); ++i) {
    const char c = snapshot[i], prev = snapshot[i - 1];
    if ((std::isdigit(static_cast<unsigned char>(c)) || c == '-') &&
        (prev == ':' || prev == '[' || prev == ',')) {
      const std::size_t end = snapshot.find_first_of(",}]", i);
      numbers.emplace_back(i, end - i);
    }
  }
  ASSERT_GT(numbers.size(), HistogramData::kBuckets);
  for (const auto& [at, len] : numbers) {
    for (const char* value : {"1e300", "-1", "nan", "inf"}) {
      std::string text = snapshot;
      read_mutant(text.replace(at, len, value));
    }
    // Two copies of the token's line with 9e18 in that field: the second
    // copy would overflow whatever the first one added.
    const std::size_t line_begin = snapshot.rfind('\n', at) + 1;
    std::string line =
        snapshot.substr(line_begin, snapshot.find('\n', at) + 1 - line_begin);
    line.replace(at - line_begin, len, "9e18");
    read_mutant(snapshot + line + line);
  }
  std::remove(path.c_str());
  EXPECT_EQ(bad, 0) << bad << " of " << mutants
                    << " mutants read a negative count; the first:\n"
                    << first_bad;

  // The lines an out-of-range number spoils are skipped, the rest kept.
  std::string spoiled = snapshot;
  const std::size_t steps_value =
      spoiled.find("\"value\":", spoiled.find("\"name\":\"steps\""));
  spoiled.replace(steps_value + 8, 2, "1e300");
  std::vector<RankMetrics> ranks = read_mutant(spoiled);
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0].counter_or("steps", -7), -7);
  EXPECT_EQ(ranks[0].counter_or("transport.msgs_sent"), 40);
  const std::string big =
      "{\"kind\":\"counter\",\"rank\":0,\"name\":\"steps\",\"value\":9e18}\n";
  ranks = read_mutant(snapshot + big + big);
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0].counter_or("steps"), 9000000000000000012LL);
  std::remove(path.c_str());
}

TEST(Summary, IdleRankReportsZeroUtilization) {
  RankMetrics idle;
  idle.rank = 5;
  EXPECT_DOUBLE_EQ(idle.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(idle.t_calc(), 0.0);
}

TEST(Summary, SummarizeRunMeasuredAndPredictedF) {
  // Two working ranks plus one idle: the idle rank must not drag the
  // means, and measured f must follow eq. 12 on the means.
  std::vector<RankMetrics> ranks(3);
  for (int r = 0; r < 2; ++r) {
    ranks[r].rank = r;
    ranks[r].counters["steps"] = 100;
    ranks[r].counters["transport.doubles_sent"] = 100 * 3 * 64;
    TimerStats calc;
    calc.count = 100;
    calc.total_s = 9.0;
    ranks[r].timers["compute.lb_collide_stream"] = calc;
    TimerStats com;
    com.count = 100;
    com.total_s = 1.0;
    ranks[r].timers["comm.exchange"] = com;
  }
  ranks[2].rank = 2;  // idle

  RunModelInputs model;
  model.dims = 2;
  model.nodes_per_rank = 64.0 * 64.0;  // N = 4096, sqrt(N) = 64
  model.processes = 2;
  model.comm_doubles_per_node = 3.0;

  const RunSummary s = summarize_run(ranks, model, /*restarts=*/1);
  ASSERT_EQ(s.ranks.size(), 3u);
  EXPECT_EQ(s.steps, 100);
  EXPECT_EQ(s.restarts, 1);
  EXPECT_DOUBLE_EQ(s.t_calc_mean, 9.0);
  EXPECT_DOUBLE_EQ(s.t_com_mean, 1.0);
  EXPECT_DOUBLE_EQ(s.measured_f, 1.0 / (1.0 + 1.0 / 9.0));
  EXPECT_DOUBLE_EQ(s.utilization_mean, 0.9);
  // per-rank per-step doubles = 19200/100 = 192; surface term 64 * 3 = 192.
  EXPECT_NEAR(s.m_factor, 1.0, 1e-12);
  EXPECT_GT(s.predicted_f_dedicated, 0.0);
  EXPECT_LE(s.predicted_f_dedicated, 1.0);
  EXPECT_GT(s.predicted_f_shared_bus, 0.0);
  EXPECT_LE(s.predicted_f_shared_bus, 1.0);
  // Idle rank appears in the per-rank table with zeros.
  EXPECT_DOUBLE_EQ(s.ranks[2].utilization, 0.0);

  const std::string json = run_summary_json(s);
  EXPECT_NE(json.find("\"measured_f\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_f_dedicated\""), std::string::npos);
  EXPECT_NE(json.find("\"ranks\""), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
}

TEST(Summary, MergeMetricsFoldsSegmentsIntoRunTotals) {
  // The segmented blocked supervisor re-reads each rank's metrics file per
  // segment; merge_metrics must fold them into whole-run totals.
  RankMetrics total;
  RankMetrics seg1;
  seg1.rank = 3;
  seg1.counters["steps"] = 10;
  seg1.counters["transport.doubles_sent"] = 100;
  TimerStats calc1;
  calc1.count = 10;
  calc1.total_s = 2.0;
  calc1.min_s = 0.1;
  calc1.max_s = 0.5;
  seg1.timers["compute.block_0"] = calc1;
  seg1.gauges["transport.send_queue_depth"] = {2.0, 4.0};

  RankMetrics seg2;
  seg2.rank = 3;
  seg2.counters["steps"] = 5;
  seg2.counters["rebalance.count"] = 1;  // new counter appears mid-run
  TimerStats calc2;
  calc2.count = 5;
  calc2.total_s = 1.0;
  calc2.min_s = 0.05;
  calc2.max_s = 0.9;
  seg2.timers["compute.block_0"] = calc2;
  TimerStats com2;
  com2.count = 5;
  com2.total_s = 0.5;
  com2.min_s = 0.1;
  com2.max_s = 0.1;
  seg2.timers["comm.exchange"] = com2;  // new timer appears mid-run
  seg2.gauges["transport.send_queue_depth"] = {1.0, 3.0};

  merge_metrics(total, seg1);
  EXPECT_EQ(total.rank, 3);  // adopted from the first segment
  merge_metrics(total, seg2);

  EXPECT_EQ(total.counter_or("steps"), 15);
  EXPECT_EQ(total.counter_or("transport.doubles_sent"), 100);
  EXPECT_EQ(total.counter_or("rebalance.count"), 1);
  const TimerStats& calc = total.timers.at("compute.block_0");
  EXPECT_EQ(calc.count, 15);
  EXPECT_DOUBLE_EQ(calc.total_s, 3.0);
  EXPECT_DOUBLE_EQ(calc.min_s, 0.05);
  EXPECT_DOUBLE_EQ(calc.max_s, 0.9);
  // An inserted-if-absent timer keeps its own stats.
  EXPECT_DOUBLE_EQ(total.timers.at("comm.exchange").total_s, 0.5);
  EXPECT_DOUBLE_EQ(total.t_calc(), 3.0);
  EXPECT_DOUBLE_EQ(total.t_com(), 0.5);
  // Gauges: newest value wins, max keeps the running maximum.
  EXPECT_DOUBLE_EQ(total.gauges.at("transport.send_queue_depth").value, 1.0);
  EXPECT_DOUBLE_EQ(total.gauges.at("transport.send_queue_depth").max, 4.0);
}

TEST(Summary, UtilizationMeanWeighsRanksByTheirFluidCells) {
  // Rank 0 owns a sliver (weight 10) and wastes most of its time waiting;
  // rank 1 owns the bulk (weight 990) and is nearly fully utilized.  The
  // unweighted mean would say 0.55; the weighted mean must sit near the
  // loaded rank's figure.
  std::vector<RankMetrics> ranks(2);
  for (int r = 0; r < 2; ++r) {
    ranks[r].rank = r;
    ranks[r].counters["steps"] = 10;
  }
  TimerStats sliver_calc, sliver_com, bulk_calc, bulk_com;
  sliver_calc.total_s = 0.1;
  sliver_com.total_s = 0.9;  // utilization 0.1
  bulk_calc.total_s = 1.0;
  bulk_com.total_s = 0.0;  // utilization 1.0
  ranks[0].timers["compute.lb_collide_stream"] = sliver_calc;
  ranks[0].timers["comm.exchange"] = sliver_com;
  ranks[1].timers["compute.lb_collide_stream"] = bulk_calc;
  ranks[1].timers["comm.exchange"] = bulk_com;

  RunModelInputs model;
  model.dims = 2;
  model.processes = 2;
  model.nodes_per_rank = 500;

  RunModelInputs weighted = model;
  weighted.rank_weights = {10.0, 990.0};
  const RunSummary equal = summarize_run(ranks, model);
  const RunSummary skewed = summarize_run(ranks, weighted);
  EXPECT_DOUBLE_EQ(equal.utilization_mean, 0.55);
  EXPECT_DOUBLE_EQ(skewed.utilization_mean,
                   (10.0 * 0.1 + 990.0 * 1.0) / 1000.0);
  EXPECT_GT(skewed.utilization_mean, 0.99);
  // Per-rank figures are untouched by the weighting.
  EXPECT_DOUBLE_EQ(skewed.ranks[0].utilization, 0.1);
  EXPECT_DOUBLE_EQ(skewed.ranks[1].utilization, 1.0);
}

TEST(Summary, RebalanceRecordsAppearInTheRunSummaryJson) {
  RunSummary s;
  // Monolithic runs (no blocks, no rebalances) omit the section entirely.
  EXPECT_EQ(run_summary_json(s).find("\"rebalances\""), std::string::npos);

  s.blocks = 12;
  RebalanceRecord rr;
  rr.step = 8;
  rr.moved_blocks = 2;
  rr.imbalance_before = 2.25;
  rr.imbalance_after = 1.1;
  s.rebalances.push_back(rr);
  const std::string json = run_summary_json(s);
  EXPECT_NE(json.find("\"blocks\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"rebalances\""), std::string::npos);
  EXPECT_NE(json.find("\"moved_blocks\":2"), std::string::npos);
  EXPECT_NE(json.find("\"imbalance_before\":2.250000"), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(count_occurrences(json, "["), count_occurrences(json, "]"));
}

// Telemetry must be pure observation: the same run with tracing enabled
// and disabled produces bitwise-identical fields.
TEST(Session, TracingDoesNotPerturbSimulationResults) {
  auto run_and_gather = [](const char* trace_env) {
    if (trace_env)
      ::setenv("SUBSONIC_TRACE", trace_env, 1);
    else
      ::unsetenv("SUBSONIC_TRACE");
    Mask2D mask(Extents2{48, 32}, 1);
    mask.fill_box({10, 10, 18, 18}, NodeType::kWall);
    FluidParams p;
    p.dt = 1.0;
    p.nu = 0.02;
    p.periodic_x = p.periodic_y = true;
    BlockedDriver<2> drv(mask, p, Method::kLatticeBoltzmann,
                         GridShape{2, 2, 1}, 0);
    drv.run(12);
    return std::make_pair(drv.gather(FieldId::kRho),
                          drv.gather(FieldId::kVx));
  };

  const auto traced = run_and_gather("1");
  const auto plain = run_and_gather(nullptr);
  ::unsetenv("SUBSONIC_TRACE");

  const Extents2 e = traced.first.interior();
  ASSERT_EQ(plain.first.interior().nx, e.nx);
  for (int y = 0; y < e.ny; ++y)
    for (int x = 0; x < e.nx; ++x) {
      ASSERT_EQ(traced.first(x, y), plain.first(x, y))
          << "rho differs at " << x << "," << y;
      ASSERT_EQ(traced.second(x, y), plain.second(x, y))
          << "vx differs at " << x << "," << y;
    }
}

TEST(Session, EnvTraceFlagParses) {
  ::setenv("SUBSONIC_TRACE", "1", 1);
  EXPECT_TRUE(trace_enabled_from_env());
  ::setenv("SUBSONIC_TRACE", "0", 1);
  EXPECT_FALSE(trace_enabled_from_env());
  ::setenv("SUBSONIC_TRACE", "", 1);
  EXPECT_FALSE(trace_enabled_from_env());
  ::unsetenv("SUBSONIC_TRACE");
  EXPECT_FALSE(trace_enabled_from_env());
}

}  // namespace
}  // namespace telemetry
}  // namespace subsonic
