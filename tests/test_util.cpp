// Tests for util: RNG determinism/statistics, argparse, tables, timers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "util/argparse.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace u = khss::util;

TEST(Rng, DeterministicGivenSeed) {
  u::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  u::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  u::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  u::Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, IndexBounds) {
  u::Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.index(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all outcomes occur
}

TEST(Rng, PermutationIsValid) {
  u::Rng rng(9);
  auto p = rng.permutation(257);
  std::set<int> s(p.begin(), p.end());
  EXPECT_EQ(s.size(), 257u);
  EXPECT_EQ(*s.begin(), 0);
  EXPECT_EQ(*s.rbegin(), 256);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  u::Rng rng(13);
  auto s = rng.sample_without_replacement(100, 20);
  ASSERT_EQ(s.size(), 20u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (auto v : s) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleClampsOversizedRequest) {
  u::Rng rng(13);
  auto s = rng.sample_without_replacement(5, 50);
  EXPECT_EQ(s.size(), 5u);
}

TEST(Rng, SplitProducesIndependentStream) {
  u::Rng a(21);
  u::Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(ArgParse, ParsesForms) {
  // Note: a bare flag followed by a positional is inherently ambiguous in
  // `--name value` grammars, so the flag is placed last here.
  const char* argv[] = {"prog", "--n", "128", "--h=2.5", "positional",
                        "--name", "gas", "--flag"};
  u::ArgParser args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(args.get_double("h", 0.0), 2.5);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_string("name", ""), "gas");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(ArgParse, Defaults) {
  const char* argv[] = {"prog"};
  u::ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Table, RendersAligned) {
  u::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "2.5"});
  std::ostringstream oss;
  t.print(oss, "demo");
  const std::string s = oss.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  u::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(u::Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(u::Table::fmt_int(42), "42");
  EXPECT_EQ(u::Table::fmt_pct(0.5, 1), "50.0%");
  EXPECT_EQ(u::Table::fmt_mb(1024.0 * 1024.0, 1), "1.0");
}

TEST(Timer, MeasuresElapsed) {
  u::Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.seconds(), 0.0);
  (void)sink;
}

TEST(Json, ScalarsAndNesting) {
  u::Json doc = u::Json::object();
  doc.set("name", "bench_micro_la");
  doc.set("n", 512);
  doc.set("gflops", 26.5);
  doc.set("avx2", true);
  u::Json arr = u::Json::array();
  arr.push(u::Json::object().set("n", 128).set("speedup", 3.5));
  arr.push(1.0);
  doc.set("rows", std::move(arr));

  const std::string s = doc.str();
  EXPECT_NE(s.find("\"name\": \"bench_micro_la\""), std::string::npos);
  EXPECT_NE(s.find("\"n\": 512"), std::string::npos);
  EXPECT_NE(s.find("\"avx2\": true"), std::string::npos);
  EXPECT_NE(s.find("\"speedup\": 3.5"), std::string::npos);
  // Keys keep insertion order so trajectory files diff cleanly.
  EXPECT_LT(s.find("\"name\""), s.find("\"gflops\""));
}

TEST(Json, EscapesAndRoundTripDoubles) {
  u::Json doc = u::Json::object();
  doc.set("quote\"back\\slash", "line\nbreak\ttab");
  doc.set("tiny", 1.0000000000000002);
  const std::string s = doc.str();
  EXPECT_NE(s.find("\"quote\\\"back\\\\slash\""), std::string::npos);
  EXPECT_NE(s.find("line\\nbreak\\ttab"), std::string::npos);
  // max_digits10 formatting keeps the last ulp.
  EXPECT_NE(s.find("1.0000000000000002"), std::string::npos);
  u::Json nonfinite = u::Json::object();
  nonfinite.set("inf", std::numeric_limits<double>::infinity());
  EXPECT_NE(nonfinite.str().find("\"inf\": null"), std::string::npos);
}

TEST(Json, EmptyContainersAndNull) {
  u::Json doc = u::Json::object();
  doc.set("empty_obj", u::Json::object());
  doc.set("empty_arr", u::Json::array());
  doc.set("nothing", u::Json());
  const std::string s = doc.str();
  EXPECT_NE(s.find("\"empty_obj\": {}"), std::string::npos);
  EXPECT_NE(s.find("\"empty_arr\": []"), std::string::npos);
  EXPECT_NE(s.find("\"nothing\": null"), std::string::npos);
}
