// The benchmark's own tracing: one span around every call it makes into a
// layer of the program (solver, runtime, comm, io, telemetry, perfmodel).
// Spans live in memory and are written out once, at the end of the traced
// run, as a Chrome trace merged with the program's own trace.json, plus a
// per-layer self-time table.  A null Tracer turns every Span into a no-op,
// which is how the end-to-end runs measure with tracing off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Steady-clock nanoseconds.
std::int64_t mono_ns();
/// Seconds elapsed since a mono_ns() reading.
double seconds_since(std::int64_t t0_ns);
/// Linearly interpolated quantile q in [0, 1] of a sample (0 when empty).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct SpanRecord {
  int id = 0;
  int parent = -1;  ///< enclosing span's id, -1 at the top
  int run = 0;      ///< run id: which supervised call (0 = none)
  std::string layer;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// A program trace.json captured from one supervised call, with the
/// offset that places its timeline on the benchmark's.
struct ProgramTrace {
  std::string json;
  std::int64_t call_start_ns = 0;
};

class Tracer {
 public:
  Tracer();

  int open(const std::string& layer, const std::string& name);
  void close(int id);
  /// Run id stamped on spans opened from now on.
  void set_run(int run) { run_ = run; }

  /// Self time per layer: each span's duration minus the part of it its
  /// child spans cover.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// One Chrome trace holding the benchmark's spans (pid 1000) and every
  /// program trace shifted onto the same origin.
  std::string chrome_json(const std::vector<ProgramTrace>& program) const;

 private:
  std::int64_t origin_ns_;
  int run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span ids (main thread only)
};

class Span {
 public:
  Span(Tracer* tracer, const char* layer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->open(layer, name) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace e2e
