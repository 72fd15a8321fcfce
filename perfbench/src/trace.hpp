#pragma once
// The traced run's recorder.  Spans are opened and closed by the
// benchmark's own code around calls into the library's public functions;
// no span lives inside the library.  Spans nest through a stack (a span's
// parent is the span open when it began), stay in memory, and are written
// out once, as JSON, when the run ends.
//
// Callbacks the library invokes from its own OpenMP threads (the HSS
// construction's extract and sample functions) cannot open spans; a CallMeter
// records them instead.

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Trace {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;  // since the trace began
    double end_s = 0.0;
    double seconds() const { return end_s - start_s; }
  };

  Trace() : t0_(Clock::now()) {}

  /// Open a span under the innermost open one; returns its id.
  int open(std::string name);
  /// Close span `id` and any span opened inside it that is still open.
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span called `name`.
  double seconds(const std::string& name) const;
  /// Durations of the direct children of span `id`.
  std::vector<double> child_seconds(int id) const;
  /// Every span as a JSON array of {name, parent, start_s, end_s}.
  khss::util::Json to_json() const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, std::string name)
      : trace_(trace), id_(trace.open(std::move(name))) {}
  ~ScopedSpan() { trace_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

/// Thread-safe record of a callback: calls, work items, and the start and
/// end of every call.  Callers may run concurrently, so the summed call
/// durations are thread-seconds; the union of the calls' intervals is the
/// wall time during which at least one call was running.
class CallMeter {
 public:
  void add(long work, Clock::time_point started) {
    const Clock::time_point ended = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    items_ += work;
    intervals_.push_back({seconds_of(started), seconds_of(ended)});
  }
  long calls() const { return calls_; }
  long items() const { return items_; }
  /// Call intervals in seconds on the steady clock.
  const std::vector<Interval>& intervals() const { return intervals_; }

 private:
  static double seconds_of(Clock::time_point t) {
    return std::chrono::duration<double>(t.time_since_epoch()).count();
  }

  std::mutex mu_;
  long calls_ = 0;
  long items_ = 0;
  std::vector<Interval> intervals_;
};

}  // namespace perfbench
