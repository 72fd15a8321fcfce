#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double highest(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("highest of an empty sample");
  return *std::max_element(v.begin(), v.end());
}

Percentile percentile(std::vector<double> v, double p) {
  Percentile out;
  out.samples = v.size();
  if (v.empty() || !(p > 0.0 && p < 1.0)) return out;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  std::size_t k = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  k = std::clamp<std::size_t>(k, 1, v.size());
  out.value = v[k - 1];
  out.beyond = v.size() - k;
  out.supported = out.beyond >= kMinBeyond;
  return out;
}

std::vector<int> sample_rows(int n, int count, std::uint64_t seed) {
  std::vector<int> rows(static_cast<std::size_t>(std::max(n, 0)));
  std::iota(rows.begin(), rows.end(), 0);
  if (count >= n) return rows;
  // Partial Fisher-Yates: the first `count` slots become the sample.
  khss::util::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const int j =
        i + static_cast<int>(rng.index(static_cast<std::uint64_t>(n - i)));
    std::swap(rows[i], rows[j]);
  }
  rows.resize(static_cast<std::size_t>(std::max(count, 0)));
  std::sort(rows.begin(), rows.end());
  return rows;
}

double relative_error(const std::vector<double>& approx,
                      const std::vector<double>& exact) {
  if (approx.size() != exact.size()) {
    throw std::invalid_argument("relative_error: length mismatch");
  }
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const double d = approx[i] - exact[i];
    num += d * d;
    den += exact[i] * exact[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

ClockSplit split_clock(double wall, const std::vector<double>& layers) {
  ClockSplit s;
  s.wall = wall;
  for (const double t : layers) s.accounted += t;
  s.unaccounted = wall - s.accounted;
  s.unaccounted_frac = wall > 0.0 ? s.unaccounted / wall : 0.0;
  return s;
}

double union_seconds(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  bool open = false;
  Interval run;  // the merged run being extended
  for (const Interval& i : intervals) {
    if (!(i.end > i.start)) continue;
    if (open && i.start <= run.end) {
      run.end = std::max(run.end, i.end);
      continue;
    }
    if (open) covered += run.end - run.start;
    run = i;
    open = true;
  }
  if (open) covered += run.end - run.start;
  return covered;
}

double summed_seconds(const std::vector<Interval>& intervals) {
  double sum = 0.0;
  for (const Interval& i : intervals) sum += std::max(0.0, i.end - i.start);
  return sum;
}

std::vector<double> chunk_rates(std::vector<double> times, int chunks) {
  std::vector<double> rates;
  if (times.size() < 2 || chunks < 1) return rates;
  std::sort(times.begin(), times.end());
  const std::size_t k = std::max<std::size_t>(
      1, (times.size() - 1) / static_cast<std::size_t>(chunks));
  for (std::size_t i = 0; i + k < times.size(); i += k) {
    const double span = times[i + k] - times[i];
    if (span > 0.0) rates.push_back(static_cast<double>(k) / span);
  }
  return rates;
}

double overhead_frac(double traced_wall, double untraced_wall) {
  return untraced_wall > 0.0 ? traced_wall / untraced_wall - 1.0 : 0.0;
}

}  // namespace perfbench
