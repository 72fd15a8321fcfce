// perfbench: the repository's benchmark of the fit and serve paths.
//
//   perfbench --workload fit-susy|serve-pen --seed N
//             --seconds S --trace 0|1
//
// Every workload runs the whole product lifecycle on one paper-twin data
// set: fit (krr::KRRClassifier or krr::OneVsAllKRR), score the held-out set
// in one batched call, save and load the model (serialize), and serve it
// (serve::ModelServer + serve::ServeClient).  The workloads differ in where
// the measured time goes: fit-susy fits 100 000 points at least once;
// serve-pen's small model is fitted, saved and served during set-up, and
// most of --seconds goes to serving it.
//
// A run is a number of rounds, each of set-up, fit, score and serve; each
// measured phase (fit, score, closed loop, open loop) runs for its
// workload's share of --seconds, spread evenly over the rounds.  Set-up,
// save and cold start come on top, and so does a fit that takes longer
// than its share.  Times are medians over the whole run, latency
// percentiles are taken over every open-loop request of the run, and
// serve_max_rps is the highest closed-loop rate over a run of completions.
//
// --trace 0 prints the end-to-end metrics, measured with no tracing.
// --trace 1 fits once through the product path, then replays the fit and
// score layer by layer under spans (replay.hpp) and prints the per-layer
// metrics.  The last line of stdout is the result object; the lines before
// it are the phase times, percentile sample counts, the raw samples behind
// each median and rate, the run header and, when tracing, the span tree.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "data/dataset.hpp"
#include "data/datasets.hpp"
#include "krr/krr.hpp"
#include "la/gemm_kernel.hpp"
#include "replay.hpp"
#include "serialize/model_io.hpp"
#include "serve_load.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/threads.hpp"

namespace k = khss;
using perfbench::Clock;
using perfbench::since;

namespace {

constexpr int kThreads = 4;
// setup_s is the median of at least kMinSetupReps set-ups spanning at
// least kMinSetupSeconds, spread over the run's rounds.
constexpr int kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 2.0;
// Each round scores at least kMinScoreReps times.
constexpr int kMinScoreReps = 2;
// serve_max_rps is the highest completion rate over kClosedChunks runs of
// completions in each closed-loop block: the rate the server sustained at
// its best, which moves less between runs on a shared host than the
// median rate does.
constexpr int kClosedChunks = 3;
constexpr int kPings = 200;
constexpr int kPoolPayloads = 64;
constexpr int kRequestRows = 16;  // bench/bench_serving.cpp's request size
// Open-loop requests: a share of --seconds at the workload's rate, and at
// least enough for every percentile the run reports to have kMinBeyond
// samples beyond it: p50 untraced, p90 traced.
constexpr long kMinOpenRequests = 40;
constexpr long kTracedOpenRequests = 100;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::uint64_t kModelSeed = 42;  // the library's default fit seed
// Fixed probe seed: op_rel_err is a deterministic function of the model.
constexpr std::uint64_t kProbeSeed = 11;

struct Workload {
  const char* name;
  const char* dataset;
  int n_train;
  int n_test;
  bool multiclass;
  bool serve_heavy;  // set-up fits, saves and starts the server
  double open_rate;  // offered req/s over all connections
  // Shares of --seconds each measured phase runs (the fit at least once).
  double fit_share;
  double score_share;
  double open_share;
  double closed_share;
  int rounds;  // each of set-up, fit, score and serve
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// The open-loop rates sit at a sixth to an eighth of each model's
// closed-loop capacity (22-36 and 390-555 req/s over runs on a shared
// 4-core host), so latency reflects service and coalescing, not a backlog
// that grows when the host runs slow.
constexpr Workload kWorkloads[] = {
    {"fit-susy", "SUSY", 100000, 2000, false, false, 4.0,
     0.2, 0.15, 0.45, 0.25, 2},
    {"serve-pen", "PEN", 8000, 2000, true, true, 60.0,
     0.2, 0.05, 0.35, 0.15, 8},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload fit-susy|serve-pen "
               "--seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
        used = v.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &used) != 0;
      } else {
        usage("unknown flag " + flag);
      }
      if (used != v.size()) usage("bad value for " + flag + ": " + v);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// Call f() until it has run at least `reps` times and `seconds` have passed.
template <class F>
void repeat(int reps, double seconds, F&& f) {
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < reps || since(t0) < seconds; ++r) f();
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  usage("unknown workload '" + name + "'");
}

// ------------------------------------------------------------------ data

struct Data {
  k::data::Dataset train;
  k::data::Dataset test;
  k::data::PaperDatasetInfo info;
};

// A workload's training set is fixed, like the paper's data files: the
// twin is generated from kTwinSeed and split by it, so every run fits the
// same points.  --seed draws the test set from a held-out pool of
// kTestPool * n_test points of the same twin, and the request payloads
// are drawn from that test set.  Normalization is fitted on
// train; the normalized points in memory are what the fit timer starts
// from.
constexpr std::uint64_t kTwinSeed = 42;
constexpr int kTestPool = 4;

Data prepare(const Workload& w, std::uint64_t seed) {
  Data d;
  d.info = k::data::paper_dataset_info(w.dataset);
  const int held_out = kTestPool * w.n_test;
  const int total = w.n_train + held_out;
  k::util::Rng split_rng(kTwinSeed);
  // +0.5 keeps the truncated fraction * total from landing one row short.
  k::data::Split split = k::data::split_and_normalize(
      k::data::make_paper_dataset(w.dataset, total, kTwinSeed),
      (w.n_train + 0.5) / total, 0.0, (held_out - 0.5) / total, split_rng);
  d.train = std::move(split.train);
  d.test = k::data::subset(
      split.test, perfbench::sample_rows(split.test.n(), w.n_test, seed));
  return d;
}

// Labels as the product path takes them: +-1 for the binary target, class
// ids for one-vs-all.
std::vector<int> labels_of(const Workload& w, const Data& d,
                           const k::data::Dataset& set) {
  return w.multiclass ? set.labels : set.one_vs_all(d.info.target_class);
}

// n x c +-1 targets in original order (one column per output).
k::la::Matrix targets_of(const Workload& w, const Data& d) {
  const std::vector<int> y = labels_of(w, d, d.train);
  const int c = w.multiclass ? d.info.num_classes : 1;
  k::la::Matrix t(static_cast<int>(y.size()), c);
  for (int i = 0; i < t.rows(); ++i) {
    for (int j = 0; j < c; ++j) {
      const int label = y[static_cast<std::size_t>(i)];
      t(i, j) = (w.multiclass ? label == j : label == 1) ? 1.0 : -1.0;
    }
  }
  return t;
}

k::krr::KRROptions model_options(const Workload& w, const Data& d) {
  k::krr::KRROptions o;
  o.ordering = k::cluster::OrderingMethod::kTwoMeans;
  o.backend = k::krr::SolverBackend::kHSSRandomH;
  o.kernel.h = d.info.h;
  o.lambda = d.info.lambda;
  o.leaf_size = 128;
  o.sieve = 8192;
  o.hss_rtol = 0.1;
  o.seed = kModelSeed;
  // The matrix-free budget: a dense n x n fallback anywhere throws.
  o.eval_budget = static_cast<long>(w.n_train) * w.n_train / 4;
  return o;
}

// ------------------------------------------------------------ product path

struct Product {
  std::unique_ptr<k::krr::KRRClassifier> binary;
  std::unique_ptr<k::krr::OneVsAllKRR> multi;

  bool fitted() const { return binary || multi; }
  const k::krr::KRRModel& model() const {
    return binary ? binary->model() : multi->model();
  }
};

// One fit through the product API under one wall timer.
double fit_product(const Workload& w, const Data& d, Product& out) {
  const k::krr::KRROptions opts = model_options(w, d);
  const std::vector<int> y = labels_of(w, d, d.train);
  out = Product{};  // free the previous model before the next fit
  Product p;
  const Clock::time_point t0 = Clock::now();
  if (w.multiclass) {
    p.multi = std::make_unique<k::krr::OneVsAllKRR>(opts);
    p.multi->fit(d.train.points, y, d.info.num_classes);
  } else {
    p.binary = std::make_unique<k::krr::KRRClassifier>(opts);
    p.binary->fit(d.train.points, y);
  }
  const double seconds = since(t0);
  out = std::move(p);
  return seconds;
}

// The held-out set scored through the fitted model in one batched call.
k::la::Matrix score_product(const Product& p, const k::la::Matrix& test) {
  k::la::Matrix scores;
  if (p.multi) {
    p.multi->predictor().predict_batch(test, scores);
    return scores;
  }
  const k::la::Vector v = p.binary->decision_function(test);
  scores.resize(static_cast<int>(v.size()), 1);
  for (int i = 0; i < scores.rows(); ++i) {
    scores(i, 0) = v[static_cast<std::size_t>(i)];
  }
  return scores;
}

// The trained weights (n x c, original order) save_model persists.  The
// binary classifier keeps its weights private; re-solving with the same
// factorization reproduces them exactly.
k::la::Matrix weights_of(const Workload& w, const Data& d, Product& p) {
  if (p.multi) return p.multi->weights();
  std::vector<int> y = labels_of(w, d, d.train);
  const k::la::Vector wv =
      p.binary->model().solve(k::la::Vector(y.begin(), y.end()));
  k::la::Matrix out(static_cast<int>(wv.size()), 1);
  for (int i = 0; i < out.rows(); ++i) {
    out(i, 0) = wv[static_cast<std::size_t>(i)];
  }
  return out;
}

double accuracy_of(const Workload& w, const k::la::Matrix& scores,
                   const std::vector<int>& truth) {
  int correct = 0;
  for (int i = 0; i < scores.rows(); ++i) {
    const double* row = scores.row(i);
    int predicted = 0;
    if (w.multiclass) {
      for (int c = 1; c < scores.cols(); ++c) {
        if (row[c] > row[predicted]) predicted = c;
      }
    } else {
      predicted = row[0] >= 0.0 ? 1 : -1;
    }
    if (predicted == truth[static_cast<std::size_t>(i)]) ++correct;
  }
  return scores.rows() > 0 ? static_cast<double>(correct) / scores.rows()
                           : 0.0;
}

// Share of the most frequent label: the accuracy a constant guess gets.
double majority_share(const std::vector<int>& labels) {
  std::map<int, int> counts;
  int best = 0;
  for (const int l : labels) best = std::max(best, ++counts[l]);
  return labels.empty() ? 0.0
                        : static_cast<double>(best) / labels.size();
}

bool all_finite(const k::la::Matrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

// ----------------------------------------------------------------- report

// util::Json renders indented; the report lines must each be one line.
// Strings escape their newlines, so every raw newline is layout.
std::string one_line(const k::util::Json& j) {
  std::string out;
  bool indent = false;
  for (const char c : j.str()) {
    if (c == '\n') {
      indent = true;
    } else if (!(indent && c == ' ')) {
      indent = false;
      out += c;
    }
  }
  return out;
}

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_.set(name, value_of(value, unit));
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::cout << "check failed: " << what << "\n";
    }
  }
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

  // Reported percentile, with its sample count printed beside it.  A
  // percentile without kMinBeyond samples beyond it fails the run.
  void percentile(const std::string& name, const std::vector<double>& s,
                  double p) {
    const perfbench::Percentile q = perfbench::percentile(s, p);
    std::cout << name << " " << 1e3 * q.value << " ms (p" << 100.0 * p
              << " of " << q.samples << " samples, " << q.beyond
              << " beyond)\n";
    check(q.supported, name + " has fewer than " +
                           std::to_string(perfbench::kMinBeyond) +
                           " samples beyond it");
    set(name, 1e3 * q.value, "ms");
  }

  std::string result_line() const {
    k::util::Json r = k::util::Json::object();
    r.set("correct", correct_ && failed_ == 0);
    r.set("attempted", attempted_);
    r.set("failed", failed_);
    r.set("metrics", metrics_);
    return one_line(r);
  }

 private:
  static k::util::Json value_of(double v, const std::string& unit) {
    k::util::Json j = k::util::Json::object();
    j.set("value", v);
    j.set("unit", unit);
    return j;
  }

  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
  k::util::Json metrics_ = k::util::Json::object();
};

k::util::Json run_header(const Args& a, double gflops) {
  const k::la::detail::GemmBlocking blk = k::la::detail::gemm_blocking();
  k::util::Json h = k::util::Json::object();
  h.set("workload", a.workload);
  h.set("seed", static_cast<long>(a.seed));
  h.set("trace", a.trace);
  h.set("nproc", k::util::hardware_threads());
  h.set("threads", k::util::max_threads());
  h.set("gemm_kernel", std::string(k::la::detail::gemm_kernel_name()));
  h.set("gemm_blocking", "kc=" + std::to_string(blk.kc) + " mc=" +
                             std::to_string(blk.mc) + " nc=" +
                             std::to_string(blk.nc));
  h.set("la.gemm_gflops", gflops);
  h.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  return h;
}

double file_mb(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / kMiB;
}

// ------------------------------------------------------------------- run

int run(const Args& a) {
  const Workload& w = find_workload(a.workload);
  k::util::set_threads(kThreads);
  const Clock::time_point run_t0 = Clock::now();

  // Scratch inside the checkout; a relative path keeps the socket name
  // under the AF_UNIX length limit wherever the checkout lives.
  const std::string dir = ".bench_build/run";
  std::filesystem::create_directories(dir);
  const std::string tag = std::to_string(::getpid());
  const std::string model_path = dir + "/model-" + tag + ".khss";
  const std::string socket = dir + "/serve-" + tag + ".sock";
  const std::string model_name = w.name;

  Report rep;
  perfbench::Trace trace;
  std::vector<double> setup_s, gen_s, fit_s, cold_s, load_s, save_s;
  Data d;
  Product prod;
  k::la::Matrix expected;  // in-process test-set scores
  perfbench::RequestPool pool;
  perfbench::ColdStart server;

  // Save the fitted model; bring a server up from the saved file.
  auto save = [&] {
    const Clock::time_point t0 = Clock::now();
    k::serialize::save_model(model_path, prod.model(),
                             weights_of(w, d, prod));
    save_s.push_back(since(t0));
  };
  auto cold_start = [&] {
    server = perfbench::ColdStart{};
    server = perfbench::cold_start(model_path, socket, model_name, pool);
    rep.op(server.first_ok);
    cold_s.push_back(server.total_s);
    load_s.push_back(server.load_s);
  };

  // Wall time of each phase, so a reader can see where a run goes.
  Clock::time_point phase_t0 = Clock::now();
  auto phase_done = [&](int round, const char* name) {
    std::cout << "phase " << round << " " << name << " " << since(phase_t0)
              << " s\n";
    phase_t0 = Clock::now();
  };

  // The run is a number of rounds, each of set-up, fit, score and serve
  // (a cold start, a closed-loop block, then an open-loop block), so that
  // each metric samples the host over the whole run rather than one
  // stretch of it.  A traced run is one round that measures each
  // phase once.
  //
  // Fits and scoring run with no server in the process, as in the
  // product, where one process fits and saves and another serves.  A live
  // ModelServer keeps its batcher's OpenMP team; with two teams, more
  // OpenMP threads than cores, libgomp stops spinning at barriers, and a
  // fit whose threads sleep at every barrier runs slower and at the mercy
  // of the host's wake-up latency.
  const int rounds = a.trace ? 1 : w.rounds;

  // ---- setup: everything before the timed part, repeated for a median.
  auto set_up = [&] {
    server = perfbench::ColdStart{};  // no server while fitting (see above)
    const Clock::time_point t0 = Clock::now();
    Data fresh = prepare(w, a.seed);
    gen_s.push_back(since(t0));
    std::swap(d, fresh);  // the previous copy is freed after the timer
    if (w.serve_heavy) {
      fit_s.push_back(fit_product(w, d, prod));
      rep.op(true);
      expected = score_product(prod, d.test.points);
      pool = perfbench::make_request_pool(d.test.points, expected,
                                          kPoolPayloads, kRequestRows,
                                          a.seed + 7);
      save();
      cold_start();
    }
    setup_s.push_back(since(t0));
  };
  auto set_up_block = [&] {
    if (a.trace) {
      set_up();
      return;
    }
    repeat((kMinSetupReps + rounds - 1) / rounds, kMinSetupSeconds / rounds,
           set_up);
  };

  // ---- fit: one wall timer around each fit().  serve-pen's set-ups
  // already fitted; in a traced run those fits are enough.
  auto fit_block = [&] {
    if (w.serve_heavy && a.trace) return;
    const double budget = a.trace ? 0.0 : w.fit_share * a.seconds / rounds;
    int fits = w.serve_heavy ? 1 : 0;
    const Clock::time_point t0 = Clock::now();
    while (fits < 1 || since(t0) < budget) {
      ++fits;
      try {
        fit_s.push_back(fit_product(w, d, prod));
        rep.op(true);
      } catch (const std::exception& e) {
        std::cout << "fit failed: " << e.what() << "\n";
        rep.op(false);
      }
    }
  };

  // ---- score the held-out set; every call must reproduce the last, and
  // every round's model the first round's.
  std::vector<double> score_s;
  auto score_block = [&] {
    repeat(kMinScoreReps, w.score_share * a.seconds / rounds, [&] {
      const Clock::time_point t0 = Clock::now();
      k::la::Matrix scores = score_product(prod, d.test.points);
      score_s.push_back(since(t0));
      if (!expected.empty()) {
        rep.check(perfbench::bit_identical(scores, expected),
                  "repeated scoring is not bit-identical");
      }
      expected = std::move(scores);
    });
  };

  // ---- serve: a closed-loop block, then an open-loop block.
  const long open_total = std::max(
      a.trace ? kTracedOpenRequests : kMinOpenRequests,
      std::lround(w.open_share * a.seconds * w.open_rate));
  const long open_requests = (open_total + rounds - 1) / rounds;  // a block
  std::vector<double> closed_rps;  // completions per second, per chunk
  std::vector<double> open_latency;  // every open-loop request of the run
  perfbench::LoadResult closed, open;  // the first block of each
  // s0 -> s1 spans the first closed block, s1 -> s2 the first open block.
  k::serve::ServeModelStats s0, s1, s2;
  auto serve_block = [&](bool first) {
    if (first) s0 = perfbench::server_stats(*server.server, model_name);
    perfbench::LoadResult c = perfbench::closed_loop(
        socket, model_name, pool,
        std::max(0.5, w.closed_share * a.seconds / rounds));
    rep.ops(c.attempted, c.failed);
    for (const double r : perfbench::chunk_rates(c.done_s, kClosedChunks)) {
      closed_rps.push_back(r);
    }
    if (first) s1 = perfbench::server_stats(*server.server, model_name);
    perfbench::LoadResult o = perfbench::open_loop(
        socket, model_name, pool, w.open_rate, open_requests);
    rep.ops(o.attempted, o.failed);
    open_latency.insert(open_latency.end(), o.latency_s.begin(),
                        o.latency_s.end());
    if (first) {
      s2 = perfbench::server_stats(*server.server, model_name);
      closed = std::move(c);
      open = std::move(o);
    }
  };

  double accuracy = 0.0;
  double op_err = 0.0;
  k::solver::SolverStats st;
  double model_mb = 0.0;
  double ping_s = 0.0;
  for (int round = 0; round < rounds; ++round) {
    set_up_block();
    if (round == 0) {
      std::cout << "setup: " << w.dataset << " twin, " << d.train.n()
                << " train / " << d.test.n() << " test, dim "
                << d.train.dim() << "\n";
    }
    server = perfbench::ColdStart{};  // serve-pen's set-ups started one
    phase_done(round, "setup");
    fit_block();
    if (!prod.fitted()) {
      std::cout << rep.result_line() << "\n";
      return 1;
    }
    phase_done(round, "fit");
    score_block();
    phase_done(round, "score");
    if (round == 0) {
      rep.check(all_finite(expected), "test scores are not finite");
      const std::vector<int> test_labels = labels_of(w, d, d.test);
      accuracy = accuracy_of(w, expected, test_labels);
      rep.check(accuracy > majority_share(test_labels),
                "accuracy is no better than the majority class");
      op_err = perfbench::op_rel_err(prod.model(), perfbench::kOpErrorRows,
                                     kProbeSeed);
      rep.check(std::isfinite(op_err), "operator error is not finite");
      st = prod.model().stats();
      // serve-pen's set-ups made the request pool and saved the model.
      if (!w.serve_heavy) {
        pool = perfbench::make_request_pool(d.test.points, expected,
                                            kPoolPayloads, kRequestRows,
                                            a.seed + 7);
        save();
      }
      model_mb = file_mb(model_path);
      phase_done(round, "checks+save");
    }
    cold_start();
    if (round == 0) ping_s = perfbench::ping_seconds(socket, kPings);
    phase_done(round, "cold_start");
    serve_block(round == 0);
    server = perfbench::ColdStart{};
    phase_done(round, "serve");
  }
  std::filesystem::remove(model_path);
  prod = Product{};

  std::optional<perfbench::ReplayResult> replay;
  if (a.trace) {
    replay = perfbench::replay_fit(d.train.points, targets_of(w, d),
                                   d.test.points, model_options(w, d),
                                   w.multiclass, trace);
    phase_done(0, "replay");
  }
  const double gflops = perfbench::gemm_gflops();

  if (!a.trace) {
    rep.set("fit_s", perfbench::median(fit_s), "s");
    rep.set("score_pts_per_s", d.test.n() / perfbench::median(score_s),
            "pts/s");
    rep.set("accuracy", accuracy, "frac");
    rep.set("op_rel_err", op_err, "ratio");
    rep.set("compressed_mb",
            static_cast<double>(st.compressed_memory_bytes +
                                st.factor_memory_bytes) /
                kMiB,
            "MB");
    rep.set("peak_rss_mb",
            static_cast<double>(k::util::peak_rss_bytes()) / kMiB, "MB");
    rep.set("setup_s", perfbench::median(setup_s), "s");
    rep.percentile("serve_p50_ms", open_latency, 0.50);
    rep.set("serve_max_rps", perfbench::highest(closed_rps), "req/s");
    rep.set("cold_start_s", perfbench::median(cold_s), "s");
    rep.set("model_file_mb", model_mb, "MB");
    rep.set("success_frac",
            1.0 - static_cast<double>(rep.failed()) /
                      static_cast<double>(std::max(1L, rep.attempted())),
            "frac");
  } else {
    const perfbench::ReplayResult& rr = *replay;
    const bool replica =
        rr.max_rank == st.max_rank &&
        rr.compressed_bytes == st.compressed_memory_bytes &&
        perfbench::bit_identical(rr.scores, expected);
    std::cout << "replica check: "
              << (replica ? "ok"
                          : "MISMATCH - the per-layer metrics are stale")
              << " (max_rank " << rr.max_rank << " vs " << st.max_rank
              << ", compressed bytes " << rr.compressed_bytes << " vs "
              << st.compressed_memory_bytes << ")\n";
    for (const auto& [name, m] : rr.metrics) rep.set(name, m.value, m.unit);
    const double batches_closed =
        static_cast<double>(s1.batches - s0.batches);
    const double busy_closed = s1.busy_seconds - s0.busy_seconds;
    const double batch_open =
        s2.batches > s1.batches
            ? (s2.busy_seconds - s1.busy_seconds) /
                  static_cast<double>(s2.batches - s1.batches)
            : 0.0;
    double mean_latency = 0.0;
    for (const double l : open.latency_s) mean_latency += l;
    mean_latency /= std::max<std::size_t>(1, open.latency_s.size());
    double mean_lag = 0.0;
    for (const double l : open.lag_s) mean_lag += l;
    mean_lag /= std::max<std::size_t>(1, open.lag_s.size());

    rep.set("data.gen_s", perfbench::median(gen_s), "s");
    rep.set("la.gemm_gflops", gflops, "GF/s");
    rep.set("predict.batch_ms",
            batches_closed > 0 ? 1e3 * busy_closed / batches_closed : 0.0,
            "ms");
    rep.set("serialize.save_s", perfbench::median(save_s), "s");
    rep.set("serialize.load_s", perfbench::median(load_s), "s");
    rep.set("serialize.file_mb", model_mb, "MB");
    rep.set("serve.ping_ms", 1e3 * ping_s, "ms");
    // The tail swings by more than any regression bound between runs on a
    // shared host, so it is reported here, ungated, rather than end to end.
    rep.percentile("serve.p90_ms", open_latency, 0.90);
    rep.set("serve.coalesce",
            batches_closed > 0
                ? static_cast<double>(s1.requests - s0.requests) /
                      batches_closed
                : 0.0,
            "ratio");
    rep.set("serve.busy_frac", busy_closed / closed.wall_s, "frac");
    rep.set("serve.queue_ms", 1e3 * (mean_latency - ping_s - batch_open),
            "ms");
    rep.set("serve.sched_lag_ms", 1e3 * mean_lag, "ms");
    rep.set("trace.overhead_frac",
            perfbench::overhead_frac(rr.fit_clock.wall, fit_s.front()),
            "frac");
    rep.set("trace.unaccounted_frac", rr.fit_clock.unaccounted_frac, "frac");
    rep.set("trace.replica_ok", replica ? 1.0 : 0.0, "bool");
    std::cout << "trace " << one_line(trace.to_json()) << "\n";
  }

  // The raw samples, so a reader can see how the host behaved in the run.
  auto dump = [](const char* name, const std::vector<double>& v) {
    std::cout << "samples " << name;
    for (const double x : v) std::cout << " " << x;
    std::cout << "\n";
  };
  dump("fit_s", fit_s);
  dump("score_s", score_s);
  dump("setup_s", setup_s);
  dump("closed_rps", closed_rps);
  dump("cold_s", cold_s);
  std::cout << "run wall " << since(run_t0) << " s\n";
  std::cout << "header " << one_line(run_header(a, gflops)) << "\n";
  std::cout << rep.result_line() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
