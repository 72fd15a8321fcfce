// Tests of the benchmark's own arithmetic: the percentile sample-count
// rule, the row-sampled operator-error estimator against the exact
// full-operator error, and the unaccounted-time split (including the wall
// time of callbacks that run on several threads at once).
//
//   python3 perfbench/run.py ... builds it into .bench_build/perfbench;
//   ctest --test-dir .bench_build/perfbench --output-on-failure

#include <algorithm>
#include <cmath>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "data/datasets.hpp"
#include "krr/krr.hpp"
#include "la/blas.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

std::vector<double> ramp(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

void test_percentile_rule() {
  using perfbench::percentile;
  // p99 of 1000 samples: rank 990, 10 beyond -> reportable.
  const perfbench::Percentile p99 = percentile(ramp(1000), 0.99);
  expect(p99.value == 990.0, "p99 of 1..1000 is 990");
  expect(p99.samples == 1000 && p99.beyond == 10, "p99 of 1000: 10 beyond");
  expect(p99.supported, "p99 of 1000 samples is reportable");
  // One sample fewer leaves 9 beyond: not reportable.
  const perfbench::Percentile short99 = percentile(ramp(999), 0.99);
  expect(short99.beyond == 9 && !short99.supported,
         "p99 of 999 samples is not reportable");
  // p50 needs 20 samples; order of the input does not matter.
  std::vector<double> v = ramp(20);
  std::reverse(v.begin(), v.end());
  const perfbench::Percentile p50 = percentile(v, 0.5);
  expect(p50.value == 10.0 && p50.beyond == 10 && p50.supported,
         "p50 of 20 samples is the 10th with 10 beyond");
  expect(!percentile(ramp(19), 0.5).supported,
         "p50 of 19 samples is not reportable");
  expect(!percentile({}, 0.5).supported, "empty sample is not reportable");

  expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  expect(perfbench::highest({0.4, 0.3, 0.5}) == 0.5, "highest of a sample");
  bool threw = false;
  try {
    perfbench::highest({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "an empty sample has no highest value");
}

void test_unaccounted_time() {
  const perfbench::ClockSplit s =
      perfbench::split_clock(10.0, {2.0, 3.0, 4.0});
  expect(s.accounted == 9.0, "accounted time sums the layers");
  expect(std::abs(s.unaccounted - 1.0) < 1e-12, "unaccounted = wall - sum");
  expect(std::abs(s.unaccounted_frac - 0.1) < 1e-12,
         "unaccounted share of the wall");
  const perfbench::ClockSplit over = perfbench::split_clock(5.0, {3.0, 3.0});
  expect(over.unaccounted < 0.0 &&
             std::abs(over.unaccounted_frac + 0.2) < 1e-12,
         "overlapping spans show as negative unaccounted time");
  expect(perfbench::split_clock(0.0, {}).unaccounted_frac == 0.0,
         "an empty clock has no unaccounted share");
  expect(std::abs(perfbench::overhead_frac(10.5, 10.0) - 0.05) < 1e-12,
         "tracing overhead is traced / untraced - 1");

  // Callback intervals from concurrent threads: [0,2] and [1,3] overlap,
  // [5,6] stands alone, [4,4] and the reversed [7,6.5] cover nothing.
  const std::vector<perfbench::Interval> calls = {
      {5.0, 6.0}, {1.0, 3.0}, {0.0, 2.0}, {4.0, 4.0}, {7.0, 6.5}};
  expect(perfbench::union_seconds(calls) == 4.0,
         "the wall of overlapping calls counts each instant once");
  expect(perfbench::summed_seconds(calls) == 5.0,
         "thread-seconds count every call");
  expect(perfbench::union_seconds({{0.0, 1.0}, {1.0, 2.0}}) == 2.0,
         "touching intervals merge");
  expect(perfbench::union_seconds({}) == 0.0, "no calls, no time");
}

void test_chunk_rates() {
  // Completions at 0, 1, ..., 8 s (unsorted): 4 runs of 2 events over 2 s.
  const std::vector<double> even = {8, 0, 1, 2, 3, 4, 5, 6, 7};
  expect(perfbench::chunk_rates(even, 4) == std::vector<double>(4, 1.0),
         "evenly spaced completions give their rate in every run");
  // Each run of two completions twice as fast as the one before.
  const std::vector<double> r =
      perfbench::chunk_rates({0, 2, 4, 5, 6, 6.5, 7}, 3);
  expect(r == std::vector<double>({0.5, 1.0, 2.0}),
         "each run's rate is its own, not the average");
  expect(perfbench::chunk_rates({1.0}, 4).empty(), "one event has no rate");
}

void test_sample_rows() {
  const std::vector<int> rows = perfbench::sample_rows(100, 30, 5);
  bool sorted_distinct = rows.size() == 30;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    sorted_distinct = sorted_distinct && rows[i - 1] < rows[i];
  }
  expect(sorted_distinct && rows.front() >= 0 && rows.back() < 100,
         "sampled rows are distinct, sorted and in range");
  expect(rows == perfbench::sample_rows(100, 30, 5), "same seed, same rows");
  expect(perfbench::sample_rows(10, 50, 5).size() == 10,
         "asking for more rows than exist returns every row");
}

// The estimator on a fitted n ~ 2000 model against the exact error of the
// whole operator, computed from the dense K + lambda I.
void test_op_error_estimator() {
  const int n = 2000;
  const khss::data::PaperDatasetInfo info =
      khss::data::paper_dataset_info("SUSY");
  const khss::data::Dataset d = khss::data::make_paper_dataset("SUSY", n, 3);
  khss::krr::KRROptions opts;
  opts.backend = khss::krr::SolverBackend::kHSSRandomH;
  opts.kernel.h = info.h;
  opts.lambda = info.lambda;
  opts.hss_rtol = 0.1;
  khss::krr::KRRModel model(opts);
  model.fit(d.points);

  const std::uint64_t seed = 11;
  khss::util::Rng rng(seed);
  khss::la::Vector x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.normal();
  const khss::la::Matrix a = model.kernel().dense();  // includes lambda I
  khss::la::Vector ax(static_cast<std::size_t>(n), 0.0);
  khss::la::gemv(1.0, a, khss::la::Trans::kNo, x, 0.0, ax);
  const double exact = perfbench::relative_error(
      model.backend_solver().matvec(x), ax);

  const double all_rows = perfbench::op_rel_err(model, n, seed);
  expect(std::abs(all_rows - exact) <= 1e-12 * exact,
         "with every row the estimator is the exact error (" +
             std::to_string(all_rows) + " vs " + std::to_string(exact) + ")");
  const double sampled =
      perfbench::op_rel_err(model, perfbench::kOpErrorRows, seed);
  expect(exact > 0.0 && sampled > 0.75 * exact && sampled < 1.33 * exact,
         "256 sampled rows estimate the exact error within 25% (" +
             std::to_string(sampled) + " vs " + std::to_string(exact) + ")");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_unaccounted_time();
  test_chunk_rates();
  test_sample_rows();
  test_op_error_estimator();
  if (failures > 0) {
    std::cout << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "all perfbench checks passed\n";
  return 0;
}
