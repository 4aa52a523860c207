// The live introspection plane: the tiny HTTP status server, the
// supervisor's StatusBoard documents, and the end-to-end story — a
// supervised run with a status port serves /healthz, /status and
// /metrics while ranks hang and die, a SIGKILLed rank's last snapshot
// lands in run_summary.json tagged partial, and scraped counters never
// go backwards across segment boundaries.
#include "src/runtime/status_board.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/comm/http_status.hpp"
#include "src/runtime/supervisor.hpp"
#include "src/telemetry/summary.hpp"
#include "src/telemetry/telemetry.hpp"
#include "tests/support/workdir.hpp"

namespace subsonic {
namespace {

Mask2D closed_box(int nx, int ny, int ghost) {
  Mask2D mask(Extents2{nx, ny}, ghost);
  mask.fill_box({0, 0, nx, 1}, NodeType::kWall);
  mask.fill_box({0, ny - 1, nx, ny}, NodeType::kWall);
  mask.fill_box({0, 0, 1, ny}, NodeType::kWall);
  mask.fill_box({nx - 1, 0, nx, ny}, NodeType::kWall);
  return mask;
}

/// One raw request over a throwaway loopback connection; returns the
/// full response (status line + headers + body), or "" on failure.
std::string http_request(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return "";
  }
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + off, request.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

/// GET returning the body on a 200, "" otherwise.
std::string http_get(int port, const std::string& path) {
  const std::string resp = http_request(
      port, "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Connection: close\r\n\r\n");
  const size_t hdr_end = resp.find("\r\n\r\n");
  if (hdr_end == std::string::npos) return "";
  if (resp.compare(0, 12, "HTTP/1.1 200") != 0) return "";
  return resp.substr(hdr_end + 4);
}

TEST(HttpStatusServer, ServesRoutesRejectsUnknownsAndReportsItsPort) {
  HttpStatusServer server(
      0, [](const std::string& path, std::string* body,
            std::string* content_type) {
        if (path != "/ping") return false;
        *body = "pong\n";
        *content_type = "text/plain";
        return true;
      });
  ASSERT_GT(server.port(), 0);  // ephemeral bind reported back

  EXPECT_EQ(http_get(server.port(), "/ping"), "pong\n");
  // Query strings are stripped before dispatch.
  EXPECT_EQ(http_get(server.port(), "/ping?x=1"), "pong\n");

  const std::string missing = http_request(
      server.port(),
      "GET /nope HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(missing.compare(0, 12, "HTTP/1.1 404"), 0) << missing;

  const std::string post = http_request(
      server.port(),
      "POST /ping HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(post.compare(0, 12, "HTTP/1.1 405"), 0) << post;

  // Sequential connections keep working (close-after-response server).
  EXPECT_EQ(http_get(server.port(), "/ping"), "pong\n");
}

/// Publishes rank's metrics snapshot into `workdir` the way a child does.
void publish_snapshot(const std::string& workdir, int rank, long steps) {
  telemetry::Session child;
  telemetry::MetricsRegistry& reg = child.metrics();
  reg.counter(rank, "steps").add(steps);
  reg.counter(rank, "transport.msgs_sent").add(40);
  reg.counter(rank, "transport.doubles_sent").add(1200);
  reg.gauge(rank, "step").set(static_cast<double>(steps));
  reg.timer(rank, "compute.block_0").record(3.0);
  reg.timer(rank, "comm.exchange").record(1.0);
  for (long i = 0; i < steps; ++i)
    reg.histogram(rank, "step.wall").record(5e-3);
  child.flush_metrics_delta(workdir + "/rank_" + std::to_string(rank) +
                            ".metrics.jsonl");
}

/// Reads `"key": <number>` from rank's object in a /status document;
/// -1 when the rank or the key is absent.
double status_field(const std::string& status, int rank, const char* key) {
  const std::size_t at =
      status.find("{\"rank\": " + std::to_string(rank) + ",");
  if (at == std::string::npos) return -1;
  const std::size_t end = status.find('}', at);
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t field = status.find(needle, at);
  if (field == std::string::npos || field > end) return -1;
  return std::strtod(status.c_str() + field + needle.size(), nullptr);
}

/// Rank's `"state"` in a /status document ("" when absent).
std::string status_state(const std::string& status, int rank) {
  const std::size_t at =
      status.find("{\"rank\": " + std::to_string(rank) + ",");
  if (at == std::string::npos) return "";
  const std::string needle = "\"state\": \"";
  const std::size_t begin = status.find(needle, at) + needle.size();
  return status.substr(begin, status.find('"', begin) - begin);
}

/// The value of one exposition series (`name{rank="r"} value`); -1 when
/// the scrape does not carry it.
double scraped(const std::string& metrics, const std::string& series) {
  const std::size_t at = metrics.find(series + " ");
  if (at == std::string::npos) return -1;
  return std::strtod(metrics.c_str() + at + series.size() + 1, nullptr);
}

TEST(StatusBoard, RendersTheLiveViewFromSnapshotsAndEvents) {
  liveness::StatusBoard board;
  liveness::StatusBoard::Config cfg;
  cfg.workdir = test::fresh_workdir("status_board");
  cfg.ranks = {0, 1};
  cfg.fluid_cells = {400, 400};
  cfg.target_step = 20;
  board.configure(cfg);

  // Before any snapshot: both ranks report "starting".
  std::string body, type;
  ASSERT_TRUE(board.handle("/status", &body, &type));
  EXPECT_EQ(type, "application/json");
  EXPECT_EQ(body.find("\"state\": \"running\""), std::string::npos);

  publish_snapshot(cfg.workdir, 0, 7);
  telemetry::LivenessRecord hang;
  hang.event = "hang_detected";
  hang.rank = 1;
  hang.generation = 0;
  hang.step = 5;
  hang.silence_s = 2.0;
  hang.deadline_s = 1.0;
  board.on_liveness(hang);
  board.set_owner_map({0, 0, 1, 1});

  body.clear();
  ASSERT_TRUE(board.handle("/status", &body, &type));
  EXPECT_NE(body.find("\"state\": \"running\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"state\": \"hung\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"utilization\": 0.75"), std::string::npos) << body;
  EXPECT_NE(body.find("\"steps_done\": 7"), std::string::npos) << body;
  EXPECT_NE(body.find("\"block_owner\": [0,0,1,1]"), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"hang_detected\""), std::string::npos) << body;

  // A restart flips the hung rank back to running; done sweeps them all.
  telemetry::LivenessRecord restart;
  restart.event = "restart";
  restart.rank = 1;
  restart.generation = 1;
  board.on_liveness(restart);
  body.clear();
  ASSERT_TRUE(board.handle("/status", &body, &type));
  EXPECT_EQ(body.find("\"state\": \"hung\""), std::string::npos) << body;
  board.set_done(true);
  body.clear();
  ASSERT_TRUE(board.handle("/status", &body, &type));
  EXPECT_NE(body.find("\"done\": true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"state\": \"done\""), std::string::npos) << body;

  EXPECT_TRUE(board.handle("/healthz", &body, &type));
  EXPECT_EQ(body, "ok\n");
  EXPECT_FALSE(board.handle("/favicon.ico", &body, &type));
}

TEST(StatusBoard, MetricsTextFoldsHarvestsAndDeltaStreams) {
  liveness::StatusBoard board;
  liveness::StatusBoard::Config cfg;
  cfg.workdir = test::fresh_workdir("status_board_metrics");
  cfg.ranks = {0, 1};
  board.configure(cfg);

  // Rank 0's snapshot is on disk; rank 1 died and its snapshot was folded
  // into the board's totals.  Both must appear in one exposition document.
  {
    telemetry::Session child;
    child.metrics().counter(0, "steps").add(9);
    child.flush_metrics_delta(cfg.workdir + "/rank_0.metrics.jsonl");
  }
  {
    telemetry::Session dead;
    dead.metrics().counter(1, "steps").add(5);
    dead.flush_metrics_delta(cfg.workdir + "/rank_1.metrics.jsonl");
  }
  EXPECT_TRUE(board.fold(1, /*partial=*/true).partial);
  EXPECT_FALSE(std::ifstream(cfg.workdir + "/rank_1.metrics.jsonl").good());

  std::string body, type;
  ASSERT_TRUE(board.handle("/metrics", &body, &type));
  EXPECT_EQ(type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(body.find("subsonic_steps_total{rank=\"0\"} 9"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("subsonic_steps_total{rank=\"1\"} 5"),
            std::string::npos)
      << body;
}

TEST(ProcessStatusEndpoint, ServesLiveDocumentsThroughAHardHang) {
  // The acceptance story: a 2-rank run where rank 1 hard-hangs mid-run
  // (SIGTERM blocked, so the ladder falls through to SIGKILL) while the
  // supervisor serves /healthz, /status and /metrics on an ephemeral
  // port.  The endpoint must answer during the run, the killed rank's
  // periodic flushes must surface in run_summary.json tagged partial,
  // and the port file must be gone once the run returns.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_HEARTBEAT_MS");
  ::unsetenv("SUBSONIC_STATUS_PORT");
  ::unsetenv("SUBSONIC_METRICS_FLUSH");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("status_live");
  ProcessRunOptions options;
  options.checkpoint_interval = 3;
  options.faults = "hang:rank=1,step=5,hard=1";
  options.liveness.heartbeat_floor_ms = 400;
  options.liveness.grace_ms = 300;
  options.metrics_flush_interval = 1;
  options.status_port = kStatusPortEphemeral;

  ProcessRunResult result;
  std::atomic<bool> done{false};
  std::string run_error;
  std::thread runner([&] {
    try {
      result = run_supervised<2>(mask, p, Method::kLatticeBoltzmann,
                                 GridShape{2, 1, 1}, 10, workdir, options);
    } catch (const std::exception& e) {
      run_error = e.what();
    }
    done.store(true);
  });

  // The supervisor writes its bound port to <workdir>/status.port.
  int port = 0;
  for (int i = 0; i < 2000 && port <= 0 && !done.load(); ++i) {
    std::ifstream in(workdir + "/status.port");
    if (!(in >> port)) port = 0;
    if (port <= 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GT(port, 0) << "status.port never appeared; run error: "
                     << run_error;

  // Poll the endpoint for the whole life of the run: it must answer
  // while ranks compute, while the hang is detected and escalated, and
  // while the cohort recovers.
  int ok_status = 0, ok_metrics = 0, ok_healthz = 0;
  bool saw_hang_event = false, saw_metrics_series = false;
  bool saw_running_rank = false;
  while (!done.load()) {
    const std::string health = http_get(port, "/healthz");
    if (health == "ok\n") ++ok_healthz;
    const std::string status = http_get(port, "/status");
    if (!status.empty() &&
        status.find("\"ranks\"") != std::string::npos)
      ++ok_status;
    if (status.find("\"hang_detected\"") != std::string::npos)
      saw_hang_event = true;
    for (int rank : {0, 1})
      if (status_state(status, rank) == "running" &&
          status_field(status, rank, "steps_done") > 0)
        saw_running_rank = true;
    const std::string metrics = http_get(port, "/metrics");
    if (!metrics.empty()) ++ok_metrics;
    if (metrics.find("subsonic_steps_total") != std::string::npos)
      saw_metrics_series = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  runner.join();
  ASSERT_TRUE(run_error.empty()) << run_error;

  EXPECT_GT(ok_healthz, 0);
  EXPECT_GT(ok_status, 0);
  EXPECT_GT(ok_metrics, 0);
  // With flush_interval=1 every rank publishes from its first step, so
  // scrapes during the run carry real series.
  EXPECT_TRUE(saw_metrics_series);
  // The hang entered the liveness tail and was served live.
  EXPECT_TRUE(saw_hang_event);
  // Some mid-run /status showed a rank running with steps counted.
  EXPECT_TRUE(saw_running_rank);

  EXPECT_EQ(result.final_step, 10);
  EXPECT_EQ(result.restarts, 1);

  // The SIGKILLed rank's last periodic snapshot was folded and tagged.
  std::ifstream in(result.summary_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"partial\":true"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("\"step_wall_p50_s\""), std::string::npos)
      << text.str();

  // End-of-run hygiene: the port file is gone, the endpoint is down.
  std::ifstream port_file(workdir + "/status.port");
  EXPECT_FALSE(port_file.good());
  EXPECT_EQ(http_get(port, "/healthz"), "");
}

TEST(ProcessStatusEndpoint, KilledRankContributesItsFlushedPrefixAsPartial) {
  // No endpoint at all here — the metrics-loss fix must work on its own.
  // rank 1 SIGKILLs itself at step 7; with flush_interval=1 its first
  // seven steps were flushed, so the summary must count them and carry
  // the partial marker instead of silently dropping the prefix.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_STATUS_PORT");
  ::unsetenv("SUBSONIC_METRICS_FLUSH");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("status_partial");
  ProcessRunOptions options;
  options.checkpoint_interval = 4;
  options.faults = "kill:rank=1,step=7";
  options.metrics_flush_interval = 1;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 12, workdir,
      options);
  EXPECT_EQ(r.restarts, 1);
  EXPECT_EQ(r.final_step, 12);

  std::ifstream in(r.summary_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  // rank 1 ran 7 steps, died, replayed 8 from the epoch-0 checkpoint:
  // 15 counted steps, tagged partial (the pre-kill prefix came from
  // periodic flushes, not a clean dump).
  EXPECT_NE(text.str().find("{\"rank\":1,\"steps\":15,"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("\"partial\":true"), std::string::npos)
      << text.str();
  // The clean rank is not tagged.
  const size_t rank0 = text.str().find("{\"rank\":0,");
  const size_t rank1 = text.str().find("{\"rank\":1,");
  ASSERT_NE(rank0, std::string::npos);
  ASSERT_NE(rank1, std::string::npos);
  EXPECT_EQ(text.str().substr(rank0, rank1 - rank0).find("\"partial\""),
            std::string::npos);

  // No endpoint was requested: no port file may exist.
  std::ifstream port_file(workdir + "/status.port");
  EXPECT_FALSE(port_file.good());
}

TEST(ProcessStatusEndpoint, MetricsCountersNeverDecreaseAcrossSegments) {
  // A segmented run ends a cohort every 5 steps; the supervisor folds
  // each rank's snapshot at the boundary.  Scrapes racing the run must
  // never see a rank's step count go backwards, across a boundary or
  // while a child replaces its snapshot.
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_STATUS_PORT");
  ::unsetenv("SUBSONIC_METRICS_FLUSH");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("status_segments");
  ProcessRunOptions options;
  options.block_side = 8;
  options.rebalance_interval = 5;
  options.metrics_flush_interval = 1;
  options.status_port = kStatusPortEphemeral;

  ProcessRunResult result;
  std::atomic<bool> done{false};
  std::string run_error;
  std::thread runner([&] {
    try {
      result = run_supervised<2>(mask, p, Method::kLatticeBoltzmann,
                                 GridShape{2, 1, 1}, 30, workdir, options);
    } catch (const std::exception& e) {
      run_error = e.what();
    }
    done.store(true);
  });

  int port = 0;
  for (int i = 0; i < 2000 && port <= 0 && !done.load(); ++i) {
    std::ifstream in(workdir + "/status.port");
    if (!(in >> port)) port = 0;
    if (port <= 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(port, 0) << "status.port never appeared; run error: "
                     << run_error;

  double last_total[2] = {0, 0}, last_done[2] = {0, 0};
  int drops = 0, scrapes = 0;
  bool past_boundary = false;
  std::string drop_report;
  while (!done.load()) {
    const std::string metrics = http_get(port, "/metrics");
    const std::string status = http_get(port, "/status");
    for (int rank : {0, 1}) {
      const double total = scraped(
          metrics, "subsonic_steps_total{rank=\"" + std::to_string(rank) +
                       "\"}");
      const double steps_done = status_field(status, rank, "steps_done");
      if ((total >= 0 && total < last_total[rank]) ||
          (steps_done >= 0 && steps_done < last_done[rank])) {
        ++drops;
        drop_report += "rank " + std::to_string(rank) + ": " +
                       std::to_string(last_total[rank]) + "/" +
                       std::to_string(last_done[rank]) + " -> " +
                       std::to_string(total) + "/" +
                       std::to_string(steps_done) + "\n";
      }
      last_total[rank] = std::max(last_total[rank], total);
      last_done[rank] = std::max(last_done[rank], steps_done);
      if (total > options.rebalance_interval) past_boundary = true;
    }
    ++scrapes;
  }
  runner.join();
  ASSERT_TRUE(run_error.empty()) << run_error;
  EXPECT_EQ(drops, 0) << "over " << scrapes << " scrapes:\n" << drop_report;
  EXPECT_TRUE(past_boundary) << scrapes << " scrapes, none after step "
                             << options.rebalance_interval;

  EXPECT_EQ(result.final_step, 30);
  ASSERT_EQ(result.rank_metrics.size(), 2u);
  std::ifstream in(result.summary_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("{\"rank\":0,\"steps\":30,"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("{\"rank\":1,\"steps\":30,"), std::string::npos)
      << text.str();
}

TEST(HttpStatusServer, RejectsPortsOutsideTheTcpRange) {
  // A port cast to 16 bits would bind another port: 70000 is 4464.
  const auto none = [](const std::string&, std::string*, std::string*) {
    return false;
  };
  EXPECT_THROW(HttpStatusServer(70000, none), std::invalid_argument);
  EXPECT_THROW(HttpStatusServer(65536, none), std::invalid_argument);
  EXPECT_THROW(HttpStatusServer(-5, none), std::invalid_argument);
}

TEST(SupervisorEnvironment, MalformedIntegersFailTheRunBeforeAnySpawn) {
  // Each integer variable is resolved by the supervisor, so a bad value
  // fails run_supervised once, naming the variable, and no rank runs.
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::pair<const char*, const char*> cases[] = {
      {"SUBSONIC_THREADS", "2x"},       {"SUBSONIC_HEARTBEAT_MS", "2x"},
      {"SUBSONIC_METRICS_FLUSH", "2x"}, {"SUBSONIC_STATUS_PORT", "2x"},
      {"SUBSONIC_STATUS_PORT", "70000"}, {"SUBSONIC_BLOCKS", "2x"},
  };
  for (const auto& [var, text] : cases) {
    SCOPED_TRACE(std::string(var) + "=" + text);
    const std::string workdir = test::fresh_workdir("status_env");
    ProcessRunOptions options;
    options.block_side = -1;  // read SUBSONIC_BLOCKS
    ::setenv(var, text, 1);
    try {
      run_supervised<2>(mask, p, Method::kLatticeBoltzmann,
                        GridShape{2, 1, 1}, 4, workdir, options);
      ADD_FAILURE() << "the run started";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << e.what();
    }
    ::unsetenv(var);
    for (const auto& entry : std::filesystem::directory_iterator(workdir))
      EXPECT_NE(entry.path().extension(), ".dump") << entry.path();
  }
}

TEST(SupervisorEnvironment, UnknownNamesFailTheRunBeforeAnySpawn) {
  // SUBSONIC_SIMD and SUBSONIC_LIVENESS_CHANNEL are checked by the
  // supervisor too, so a typo fails run_supervised once, naming the
  // variable, instead of as rank crashes the supervisor would restart.
  ::unsetenv("SUBSONIC_FAULTS");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::pair<const char*, const char*> cases[] = {
      {"SUBSONIC_SIMD", "sclar"}, {"SUBSONIC_LIVENESS_CHANNEL", "sockets"}};
  for (const auto& [var, text] : cases) {
    SCOPED_TRACE(std::string(var) + "=" + text);
    const char* saved = std::getenv(var);
    const std::string restore = saved ? saved : "";
    const std::string workdir = test::fresh_workdir("status_names");
    ::setenv(var, text, 1);
    try {
      run_supervised<2>(mask, p, Method::kLatticeBoltzmann,
                        GridShape{2, 1, 1}, 4, workdir, ProcessRunOptions{});
      ADD_FAILURE() << "the run started";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << e.what();
    }
    if (saved)
      ::setenv(var, restore.c_str(), 1);
    else
      ::unsetenv(var);
    for (const auto& entry : std::filesystem::directory_iterator(workdir))
      EXPECT_NE(entry.path().extension(), ".dump") << entry.path();
  }
}

TEST(ProcessStatusEndpoint, DisabledByDefaultLeavesNoPortFile) {
  ::unsetenv("SUBSONIC_FAULTS");
  ::unsetenv("SUBSONIC_STATUS_PORT");
  const Mask2D mask = closed_box(24, 18, 1);
  FluidParams p;
  p.dt = 1.0;
  const std::string workdir = test::fresh_workdir("status_off");
  ProcessRunOptions options;
  const ProcessRunResult r = run_supervised<2>(
      mask, p, Method::kLatticeBoltzmann, GridShape{2, 1, 1}, 6, workdir,
      options);
  EXPECT_EQ(r.final_step, 6);
  std::ifstream port_file(workdir + "/status.port");
  EXPECT_FALSE(port_file.good());
}

}  // namespace
}  // namespace subsonic
