// Synthesis-as-a-service throughput: the paper's Figure-3 workload (a
// 64-bit 16-function ALU) pushed through the server at 1, 8 and 64
// concurrent clients, cold caches vs warm.
//
// Cold models the one-shot flow the server exists to amortize: every
// request lands in a fresh session (a unique, behaviorally inert
// cache-budget value keeps the session fingerprints distinct), so each
// one pays session construction, evaluation and extraction on an empty
// extraction cache; expansion is served by the process-wide
// TemplateCache like any production request. Warm is the steady state:
// default options, memoized sessions from the server's shared pool.
//
// Every response — cold and warm, at every concurrency — must carry a
// front byte-identical to in-process Synthesizer::synthesize; the exit
// status gates on it. Results go to BENCH_server.json (override with
// BRIDGE_BENCH_JSON); tools/check_bench_regression.py --server holds the
// floors: warm req/s and warm/cold speedup >= 2.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "bench_json.h"
#include "cells/cell.h"
#include "cells/registry.h"
#include "genus/spec.h"
#include "server/protocol.h"
#include "server/server.h"

using namespace bridge;

namespace {

genus::ComponentSpec fig3_spec() {
  return genus::make_alu_spec(64, genus::alu16_ops());
}

api::RequestOptions cold_options(int request_index) {
  api::RequestOptions o;
  // Distinct fingerprint per request -> fresh session per request. The
  // 1 GiB budget never binds (a fig3 front's modules take ~0.3 MB).
  o.extraction_cache_budget_bytes = (1L << 30) + request_index;
  return o;
}

struct BatchResult {
  double wall_ms = 0.0;
  std::vector<double> latencies_ms;
  bool fronts_identical = true;
  std::string first_error;

  double rps() const {
    return wall_ms > 0.0 ? 1000.0 * static_cast<double>(latencies_ms.size()) /
                               wall_ms
                         : 0.0;
  }
  double p99_ms() const {
    if (latencies_ms.empty()) return 0.0;
    std::vector<double> sorted = latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    return sorted[static_cast<std::size_t>(
        0.99 * static_cast<double>(sorted.size() - 1))];
  }
};

// `clients` connections issuing `reqs` (claimed from a shared counter,
// one in flight per connection), checking every front against `expect`.
BatchResult run_batch(int port, int clients,
                      const std::vector<api::SynthesisRequest>& reqs,
                      const std::vector<dtas::AlternativeDesign>& expect) {
  std::vector<std::string> frames;
  frames.reserve(reqs.size());
  for (const api::SynthesisRequest& req : reqs) {
    api::Json j = req.encode();
    j.set("method", "synthesize");
    frames.push_back(j.dump());
  }

  BatchResult out;
  std::mutex mu;  // latencies + failure notes
  std::atomic<std::size_t> next{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int cidx = 0; cidx < clients; ++cidx) {
    threads.emplace_back([&] {
      try {
        const int fd = server::connect_tcp(port);
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= frames.size()) break;
          const auto r0 = std::chrono::steady_clock::now();
          server::write_frame(fd, frames[i]);
          std::string payload;
          if (!server::read_frame(fd, payload)) {
            throw Error("server closed the connection");
          }
          const auto r1 = std::chrono::steady_clock::now();
          const api::SynthesisResult res =
              api::SynthesisResult::from_json(payload);
          std::lock_guard<std::mutex> lock(mu);
          out.latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(r1 - r0).count());
          if (!res.ok()) {
            out.fronts_identical = false;
            if (out.first_error.empty()) out.first_error = res.error;
          } else if (!api::front_matches(res, expect, /*with_vhdl=*/false)) {
            out.fronts_identical = false;
            if (out.first_error.empty()) {
              out.first_error = "front differs from in-process synthesis";
            }
          }
        }
        server::close_socket(fd);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        out.fronts_identical = false;
        if (out.first_error.empty()) out.first_error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return out;
}

}  // namespace

int main() {
  const char* quick_env = std::getenv("BRIDGE_BENCH_QUICK");
  const bool quick = quick_env != nullptr && quick_env[0] != '\0' &&
                     quick_env[0] != '0';
  const int workers =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));

  auto registry = cells::LibraryRegistry::with_builtins();
  const genus::ComponentSpec spec = fig3_spec();

  // The in-process reference front; cold and warm requests must both
  // reproduce it.
  dtas::Synthesizer reference(cells::lsi_library());
  const std::vector<dtas::AlternativeDesign> expect =
      reference.synthesize(spec);
  if (expect.empty()) {
    std::fprintf(stderr, "reference synthesis produced no alternatives\n");
    return 1;
  }

  std::printf("fig3 alu64 over the wire, %d workers%s\n", workers,
              quick ? " (quick mode)" : "");
  std::printf("%-6s %6s %6s %10s %10s %9s %9s  %s\n", "level", "cold_n",
              "warm_n", "cold_rps", "warm_rps", "speedup", "p99_warm",
              "fronts");

  std::vector<benchjson::Entry> entries;
  bool all_identical = true;
  int cold_index = 0;  // unique budgets across the whole run
  for (int concurrency : {1, 8, 64}) {
    // Cold sample: capped at 16 requests (printed, never silent) — each
    // one is a full one-shot synthesis, and the ratio needs a sample,
    // not a census.
    const int cold_n = std::min(concurrency, quick ? 2 : 16);
    const int warm_n =
        quick ? concurrency : std::max(2 * concurrency, 16);

    BatchResult cold;
    {
      server::ServerOptions options;
      options.workers = workers;
      server::SynthesisServer srv(registry, options);
      srv.start();
      std::vector<api::SynthesisRequest> reqs(cold_n);
      for (api::SynthesisRequest& req : reqs) {
        req.library = cells::lsi_library().name();
        req.spec = spec;
        req.options = cold_options(cold_index++);
      }
      cold = run_batch(srv.port(), std::min(concurrency, cold_n), reqs,
                       expect);
      srv.stop();
    }

    BatchResult warm;
    {
      server::ServerOptions options;
      options.workers = workers;
      server::SynthesisServer srv(registry, options);
      srv.start();
      api::SynthesisRequest req;
      req.library = cells::lsi_library().name();
      req.spec = spec;
      // Warm the pool, unmeasured: `workers` concurrent connections
      // build up to one session per slot, each warm once it has served.
      const std::vector<api::SynthesisRequest> warmup(
          static_cast<std::size_t>(2 * workers), req);
      run_batch(srv.port(), workers, warmup, expect);
      const std::vector<api::SynthesisRequest> reqs(
          static_cast<std::size_t>(warm_n), req);
      warm = run_batch(srv.port(), concurrency, reqs, expect);
      srv.stop();
    }

    const bool identical = cold.fronts_identical && warm.fronts_identical;
    all_identical = all_identical && identical;
    const double speedup =
        cold.rps() > 0.0 ? warm.rps() / cold.rps() : 0.0;
    std::printf("c=%-4d %6d %6d %10.1f %10.1f %8.1fx %7.2fms  %s\n",
                concurrency, cold_n, warm_n, cold.rps(), warm.rps(),
                speedup, warm.p99_ms(), identical ? "identical" : "DIFFER");
    if (!identical) {
      std::fprintf(stderr, "  first error: %s\n",
                   (cold.first_error.empty() ? warm.first_error
                                             : cold.first_error)
                       .c_str());
    }

    benchjson::Entry e;
    e.name = "server_throughput/c" + std::to_string(concurrency);
    e.num("concurrency", concurrency)
        .num("workers", workers)
        .num("cold_requests", cold_n)
        .num("warm_requests", warm_n)
        .num("cold_rps", cold.rps())
        .num("warm_rps", warm.rps())
        .num("warm_cold_speedup", speedup)
        .num("p99_ms_cold", cold.p99_ms())
        .num("p99_ms_warm", warm.p99_ms())
        .str("fronts_identical", identical ? "YES" : "NO");
    entries.push_back(e);
  }

  const char* path_env = std::getenv("BRIDGE_BENCH_JSON");
  benchjson::write(entries, path_env != nullptr && path_env[0] != '\0'
                                ? path_env
                                : "BENCH_server.json");
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: served fronts differ from in-process synthesis\n");
    return 1;
  }
  std::printf("all served fronts byte-identical to in-process synthesis\n");
  return 0;
}
