#pragma once
// Pure arithmetic of the benchmark: medians, percentiles under the
// sample-support rule, the row-sampled operator-error estimator and the
// split of a wall clock into layer time and unaccounted time.  Nothing here
// reads a clock or touches the library, so tests/test_perfbench.cpp pins it
// exactly.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).  Throws std::invalid_argument on an empty sample.
double median(std::vector<double> v);

/// Largest value of a non-empty sample.  Throws std::invalid_argument on
/// an empty sample.
double highest(const std::vector<double>& v);

/// A percentile as the benchmark reports it: the value, the sample count it
/// came from, and how many samples lie strictly beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  /// True when at least kMinBeyond samples lie beyond the value; only then
  /// may the percentile be reported.
  bool supported = false;
};

/// Samples that must lie beyond a percentile before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile, p in (0, 1): the k-th smallest sample with
/// k = ceil(p * n).  `beyond` counts the n - k ranks above it.
Percentile percentile(std::vector<double> v, double p);

/// `count` distinct row indices in [0, n), drawn from `seed` and sorted.
/// count >= n returns every row.
std::vector<int> sample_rows(int n, int count, std::uint64_t seed);

/// ||approx - exact|| / ||exact|| over the sampled rows: the row-sampled
/// estimate of the operator error ||(A_c - A) x|| / ||A x||.  Both vectors
/// hold the same rows in the same order.  With every row it is the exact
/// full-operator error.
double relative_error(const std::vector<double>& approx,
                      const std::vector<double>& exact);

/// A wall clock split into the time its layer spans cover and the rest.
struct ClockSplit {
  double wall = 0.0;
  double accounted = 0.0;    // sum of the layer spans
  double unaccounted = 0.0;  // wall - accounted; negative when spans overlap
  double unaccounted_frac = 0.0;  // unaccounted / wall (0 when wall is 0)
};

ClockSplit split_clock(double wall, const std::vector<double>& layers);

/// A time interval [start, end] in seconds.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of `intervals`: the time covered by at least one.
/// Empty or reversed intervals cover nothing.
double union_seconds(std::vector<Interval> intervals);

/// Summed length of `intervals`, overlaps counted once per interval.
double summed_seconds(const std::vector<Interval>& intervals);

/// Event rates over `chunks` consecutive runs of events: with the sorted
/// event times t and k = (n - 1) / chunks events per run, run j's rate is
/// k / (t[(j + 1) k] - t[j k]).  Counting a fixed number of events in a
/// measured span, rather than events in a fixed window, keeps a rate from
/// being rounded to whole events.  Fewer than two events give no rate.
std::vector<double> chunk_rates(std::vector<double> times, int chunks);

/// Relative cost of tracing: traced / untraced - 1 (0 when untraced is 0).
double overhead_frac(double traced_wall, double untraced_wall);

}  // namespace perfbench
