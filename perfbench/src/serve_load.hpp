#pragma once
// Load generation against an in-process serve::ModelServer through
// serve::ServeClient connections, plus the cold start that brings a server
// up from a saved model file.
//
// Every served score row is checked against the in-process predictor's
// score of the same test row: a row that is not bit-identical counts as a
// failed request, like a request that errors.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Connections the load generator opens (one process, one thread each).
inline constexpr int kConnections = 4;

/// The request payloads a load phase cycles through and the scores they
/// must come back with.
struct RequestPool {
  std::vector<khss::la::Matrix> payloads;  // rows copied from the test set
  std::vector<std::vector<int>> rows;      // test-set row of each payload row
  const khss::la::Matrix* expected = nullptr;  // in-process test-set scores
};

/// `count` payloads of `rows_per_request` test rows each, drawn from `seed`.
RequestPool make_request_pool(const khss::la::Matrix& test,
                              const khss::la::Matrix& expected_scores,
                              int count, int rows_per_request,
                              std::uint64_t seed);

struct LoadResult {
  std::vector<double> latency_s;  // open loop: one per completed request
  std::vector<double> lag_s;      // open loop: send time - due time
  std::vector<double> done_s;     // closed loop: completion times since start
  long attempted = 0;
  long failed = 0;  // errored or not bit-identical
  double wall_s = 0.0;
};

/// Open loop: request j is due at t0 + j / rate and goes out on connection
/// j mod kConnections, so arrivals are evenly spaced like independent
/// users.  As in bench/bench_serving.cpp, latency runs from the due time,
/// so a stalled connection charges its wait to every request queued behind
/// it (no coordinated omission).
LoadResult open_loop(const std::string& socket, const std::string& model,
                     const RequestPool& pool, double rate, long requests);

/// Closed loop: kConnections connections send back to back for `seconds`.
LoadResult closed_loop(const std::string& socket, const std::string& model,
                       const RequestPool& pool, double seconds);

/// Median round trip of `count` pings on one connection, in seconds.
double ping_seconds(const std::string& socket, int count);

/// A server brought up from a model file, with the cold-start clock.
struct ColdStart {
  std::unique_ptr<khss::serve::ModelServer> server;
  double load_s = 0.0;   // serialize::load_model
  double total_s = 0.0;  // load + server start + first score answered
  bool first_ok = false;  // first score bit-identical to in-process
};

/// load_model(path), start a server on `socket` serving it as `model`, and
/// score pool.payloads[0] once.  Throws when any step fails.
ColdStart cold_start(const std::string& path, const std::string& socket,
                     const std::string& model, const RequestPool& pool);

/// Counters of one model on a running server.
khss::serve::ServeModelStats server_stats(
    const khss::serve::ModelServer& server, const std::string& model);

}  // namespace perfbench
