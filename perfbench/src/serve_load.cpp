#include "serve_load.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "serialize/model_io.hpp"
#include "serve/client.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

// True when every row of `got` is bit-identical to the expected score of
// the test row it was copied from.
bool matches(const RequestPool& pool, std::size_t payload,
             const khss::la::Matrix& got) {
  const std::vector<int>& rows = pool.rows[payload];
  if (got.rows() != static_cast<int>(rows.size())) return false;
  for (int r = 0; r < got.rows(); ++r) {
    if (!rows_bit_identical(got, r, *pool.expected,
                            rows[static_cast<std::size_t>(r)])) {
      return false;
    }
  }
  return true;
}

// One scored request: returns false on an error or a wrong score.  A
// connection that errored is reopened so later requests still go out.
bool score_once(std::unique_ptr<khss::serve::ServeClient>& client,
                const std::string& socket, const std::string& model,
                const RequestPool& pool, std::size_t payload) {
  try {
    if (!client) client = std::make_unique<khss::serve::ServeClient>(socket);
    return matches(pool, payload,
                   client->score(model, pool.payloads[payload]));
  } catch (const std::exception&) {
    client.reset();
    return false;
  }
}

}  // namespace

RequestPool make_request_pool(const khss::la::Matrix& test,
                              const khss::la::Matrix& expected_scores,
                              int count, int rows_per_request,
                              std::uint64_t seed) {
  RequestPool pool;
  pool.expected = &expected_scores;
  khss::util::Rng rng(seed);
  for (int p = 0; p < count; ++p) {
    khss::la::Matrix payload(rows_per_request, test.cols());
    std::vector<int> rows;
    for (int r = 0; r < rows_per_request; ++r) {
      const int i = static_cast<int>(
          rng.index(static_cast<std::uint64_t>(test.rows())));
      rows.push_back(i);
      std::copy(test.row(i), test.row(i) + test.cols(), payload.row(r));
    }
    pool.payloads.push_back(std::move(payload));
    pool.rows.push_back(std::move(rows));
  }
  return pool;
}

LoadResult open_loop(const std::string& socket, const std::string& model,
                     const RequestPool& pool, double rate, long requests) {
  // Indexed by due order; each connection writes only its own slots.
  const double kFailed = -1.0;
  std::vector<double> latency(static_cast<std::size_t>(requests), kFailed);
  std::vector<double> lag(static_cast<std::size_t>(requests), 0.0);
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<khss::serve::ServeClient> client;
      for (long j = c; j < requests; j += kConnections) {
        const std::size_t slot = static_cast<std::size_t>(j);
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(j) /
                                                   rate));
        std::this_thread::sleep_until(due);  // no-op when running late
        lag[slot] = since(due);
        const std::size_t payload = slot % pool.payloads.size();
        if (score_once(client, socket, model, pool, payload)) {
          latency[slot] = since(due);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult out;
  out.wall_s = since(t0);
  out.attempted = requests;
  for (const double l : latency) {
    if (l == kFailed) {
      ++out.failed;
    } else {
      out.latency_s.push_back(l);
    }
  }
  out.lag_s = std::move(lag);
  return out;
}

LoadResult closed_loop(const std::string& socket, const std::string& model,
                       const RequestPool& pool, double seconds) {
  std::vector<long> attempted(kConnections, 0);
  std::vector<long> failed(kConnections, 0);
  std::vector<std::vector<double>> done(kConnections);
  std::vector<std::thread> threads;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<khss::serve::ServeClient> client;
      for (std::size_t k = static_cast<std::size_t>(c); Clock::now() < end;
           k += kConnections) {
        const std::size_t slot = static_cast<std::size_t>(c);
        ++attempted[slot];
        if (score_once(client, socket, model, pool,
                       k % pool.payloads.size())) {
          done[slot].push_back(since(t0));
        } else {
          ++failed[slot];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  LoadResult out;
  out.wall_s = since(t0);
  for (int c = 0; c < kConnections; ++c) {
    out.attempted += attempted[static_cast<std::size_t>(c)];
    out.failed += failed[static_cast<std::size_t>(c)];
    const std::vector<double>& d = done[static_cast<std::size_t>(c)];
    out.done_s.insert(out.done_s.end(), d.begin(), d.end());
  }
  std::sort(out.done_s.begin(), out.done_s.end());
  return out;
}

double ping_seconds(const std::string& socket, int count) {
  khss::serve::ServeClient client(socket);
  std::vector<double> rtt;
  for (int i = 0; i < count; ++i) {
    const Clock::time_point t0 = Clock::now();
    client.ping();
    rtt.push_back(since(t0));
  }
  return median(rtt);
}

ColdStart cold_start(const std::string& path, const std::string& socket,
                     const std::string& model, const RequestPool& pool) {
  ColdStart cs;
  const Clock::time_point t0 = Clock::now();
  khss::serialize::LoadedModel loaded = khss::serialize::load_model(path);
  cs.load_s = since(t0);
  khss::serve::ServerOptions opts;
  opts.socket_path = socket;
  cs.server = std::make_unique<khss::serve::ModelServer>(opts);
  cs.server->add_model(model, std::move(loaded));
  cs.server->start();
  khss::serve::ServeClient client(socket);
  cs.first_ok = matches(pool, 0, client.score(model, pool.payloads[0]));
  cs.total_s = since(t0);
  return cs;
}

khss::serve::ServeModelStats server_stats(
    const khss::serve::ModelServer& server, const std::string& model) {
  for (const auto& [name, st] : server.stats()) {
    if (name == model) return st;
  }
  throw std::runtime_error("server does not serve model '" + model + "'");
}

}  // namespace perfbench
