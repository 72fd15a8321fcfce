#pragma once
// Wall-clock timing utilities used by benchmarks and the KRR pipeline's
// per-phase breakdown (Table 4 in the paper).

#include <chrono>

namespace khss::util {

/// Simple monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace khss::util
