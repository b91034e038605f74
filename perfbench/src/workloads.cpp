// The three workloads. Each one: set up (first touch of every input it
// will use), run the timed window — untraced for the end-to-end metrics, or
// half untraced / half traced for the per-layer metrics — then check every
// distinct front with the oracle outside the window.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "base/diag.h"
#include "bench.h"
#include "dtas/synthesizer.h"
#include "inputs.h"
#include "lint/lint.h"
#include "obs/metrics.h"
#include "report.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util.h"
#include "vhdl/vhdl.h"

extern char** environ;

namespace perfbench {

using bridge::api::ResultAlternative;
using bridge::api::SynthesisRequest;
using bridge::api::SynthesisResult;
using bridge::dtas::AlternativeDesign;
using bridge::dtas::Synthesizer;

// --- shared ------------------------------------------------------------------

void Env::note_failure(const std::string& what) {
  std::lock_guard<std::mutex> lock(failures_mu);
  if (failures.size() < 16) failures.push_back(what);
  std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

double Env::setup_s() const { return ms_between(t_start, now_ns()) / 1e3; }

void common_setup(Env& env) {
  env.threads = std::min(4, online_cpus());
  std::int64_t t0 = now_ns();
  env.registry = bridge::cells::LibraryRegistry::with_builtins();
  env.registry.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                                 "/sample_sky130_subset.lib");
  env.liberty_load_ms = ms_between(t0, now_ns());
  double rules_ms = 0;
  for (const std::string& name : library_names()) {
    t0 = now_ns();
    const bridge::dtas::RuleBase rules =
        bridge::dtas::default_rules_for(env.registry.at(name));
    rules_ms += ms_between(t0, now_ns());
  }
  env.lola_rules_ms = rules_ms / static_cast<double>(library_names().size());
}

namespace {

/// Latency samples kept per caller (a uniform sample once a caller runs
/// more ops than this).
constexpr std::size_t kLatencySamples = 1 << 16;

struct OpOutcome {
  double latency_ms = 0;
  bool ok = false;
};

/// Runs `callers` closed loops side by side for `seconds`, each on its own
/// thread calling op(caller, op_id) back to back, in rounds of
/// `ops_per_round` ops across all callers.
template <class Op>
Window run_window(Env& env, int callers, double seconds, long ops_per_round,
                  Op&& op) {
  std::vector<Window> per(callers);
  std::vector<Reservoir> latency;
  for (int c = 0; c < callers; ++c) {
    latency.emplace_back(kLatencySamples, sub_seed(env.opt.seed, "latency") + c);
  }
  std::atomic<long> next_id{0};
  RoundClock rounds(ops_per_round);
  const double cpu0 = process_cpu_ms();
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  rounds.start();
  auto loop = [&](int c) {
    Window& mine = per[c];
    try {
      while (now_ns() < deadline) {
        const OpOutcome o = op(c, next_id.fetch_add(1));
        rounds.op_done();
        latency[c].add(o.latency_ms);
        ++mine.attempted;
        if (!o.ok) ++mine.failed;
      }
    } catch (const std::exception& e) {
      env.note_failure(std::string("caller stopped: ") + e.what());
      ++mine.attempted;
      ++mine.failed;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < callers; ++c) threads.emplace_back(loop, c);
  loop(0);
  for (std::thread& t : threads) t.join();
  Window w;
  w.wall_s = ms_between(t0, now_ns()) / 1e3;
  w.cpu_ms = process_cpu_ms() - cpu0;
  w.peak_rss_mb = peak_rss_mb();
  for (int c = 0; c < callers; ++c) {
    const std::vector<double>& v = latency[c].values();
    w.latency_ms.insert(w.latency_ms.end(), v.begin(), v.end());
    w.attempted += per[c].attempted;
    w.failed += per[c].failed;
  }
  rounds.finish(w);
  return w;
}

std::vector<const SpanBuffer*> buffers(const std::vector<SpanBuffer>& spans) {
  std::vector<const SpanBuffer*> out;
  for (const SpanBuffer& b : spans) out.push_back(&b);
  return out;
}

/// The result of a set-up-only run: just setup_s.
RunResult setup_only_result(double setup_s) {
  RunResult r;
  r.metrics.set("setup_s", setup_s, "s");
  return r;
}

/// Sums per-caller op counts.
std::vector<long> sum_counts(const std::vector<std::vector<long>>& per) {
  std::vector<long> out(per.empty() ? 0 : per[0].size(), 0);
  for (const auto& v : per) {
    for (std::size_t i = 0; i < v.size(); ++i) out[i] += v[i];
  }
  return out;
}

double ops_per_s(const Window& w) {
  return w.wall_s > 0 ? static_cast<double>(w.attempted - w.failed) / w.wall_s
                      : 0.0;
}

/// Folds a window and the oracle into the result line. `job_ops[j]` is the
/// number of window ops whose input is oracle job j: an op whose front
/// fails the oracle counts as failed.
RunResult finish(Env& env, Window w, const std::vector<OracleReport>& reports,
                 const std::vector<long>& job_ops, double setup_s,
                 bool traced) {
  OracleReport oracle;
  for (std::size_t j = 0; j < reports.size(); ++j) {
    oracle.merge(reports[j]);
    if (!reports[j].ok()) w.failed += job_ops[j];
  }
  RunResult r;
  r.attempted = w.attempted;
  r.failed = w.failed;
  if (!oracle.ok()) {
    for (const std::string& f : oracle.failures) env.note_failure("oracle: " + f);
  }
  r.correct = w.failed == 0 && oracle.ok() && env.failures.empty() &&
              w.attempted > 0;
  if (!traced) end_to_end_metrics(w, setup_s, r.metrics);
  std::fprintf(stderr,
               "perfbench: %ld ops, %ld failed; oracle: %ld fronts, %ld "
               "alternatives, %ld lint errors, %ld sim mismatches\n",
               w.attempted, w.failed, oracle.fronts, oracle.alternatives,
               oracle.lint_errors, oracle.sim_mismatches);
  if (!w.round_ops_per_s.empty()) {
    std::vector<double> rate = w.round_ops_per_s;
    std::sort(rate.begin(), rate.end());
    std::fprintf(stderr,
                 "perfbench: %zu rounds, ops/s min %.1f median %.1f max %.1f\n",
                 rate.size(), rate.front(), quantile(rate, 0.5), rate.back());
  }
  if (!traced && !quantile_supported(w.latency_ms.size(), 0.9)) {
    std::fprintf(stderr,
                 "perfbench: warning: %zu samples leave fewer than 10 beyond "
                 "p90\n",
                 w.latency_ms.size());
  }
  return r;
}

void write_trace(const Env& env, const std::vector<const SpanBuffer*>& bufs) {
  const std::string path = env.opt.out_dir + "/trace-" + env.opt.workload +
                           "-" + std::to_string(env.opt.seed) + ".json";
  write_chrome_trace(path, bufs);
  std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
}

bool matches(const Env& env, const std::string& key, const std::string& front,
             const std::string* vhdl) {
  const GoldenEntry* g = env.golden.find(key);
  return g != nullptr && g->front == front &&
         (vhdl == nullptr || g->vhdl == *vhdl);
}

}  // namespace

// --- sweep_netlist -------------------------------------------------------------

bridge::dtas::SpaceOptions sweep_options(int threads) {
  bridge::dtas::SpaceOptions o;
  o.min_delay_gain = 0.0;
  o.max_alternatives_per_node = 48;
  o.max_combinations_per_impl = 1000000;
  o.threads = threads;
  return o;
}

namespace {

std::vector<double> sweep_latencies(const bridge::cells::CellLibrary& lsi,
                                    const bridge::netlist::Module& input,
                                    double seconds) {
  std::vector<double> lat;
  const bridge::dtas::SpaceOptions opts = sweep_options(1);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    Synthesizer s(lsi, opts);
    s.synthesize_netlist(input);
    lat.push_back(ms_between(t0, now_ns()));
  }
  return lat;
}

/// Contention control, in-process leg: `n` single-thread Synthesizers as
/// `n` threads of this process; p50 of every op.
double contention_threads(const bridge::cells::CellLibrary& lsi, int n,
                          double seconds) {
  const bridge::netlist::Module input = sweep_variant(0);
  std::vector<std::vector<double>> lat(n);
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(
        [&, i] { lat[i] = sweep_latencies(lsi, input, seconds); });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return quantile(all, 0.5);
}

/// Contention control, multi-process leg: `n` copies of this executable in
/// contention-child mode at once; median of their per-op p50s.
double contention_processes(int n, double seconds) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw bridge::Error("cannot resolve own executable");
  exe[len] = '\0';
  const std::string secs = std::to_string(seconds);
  struct Child {
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Child> kids;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw bridge::Error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    const char* argv[] = {exe, "contention-child", "--seconds", secs.c_str(),
                          nullptr};
    Child c;
    const int rc = posix_spawn(&c.pid, exe, &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
      close(fds[0]);
      continue;
    }
    c.fd = fds[0];
    kids.push_back(c);
  }
  std::vector<double> p50s;
  for (Child& c : kids) {
    std::string out;
    char buf[512];
    for (ssize_t k; (k = read(c.fd, buf, sizeof buf)) > 0;) out.append(buf, k);
    close(c.fd);
    int status = 0;
    waitpid(c.pid, &status, 0);
    double v = 0;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
        std::sscanf(out.c_str(), "contention_p50_ms %lf", &v) == 1) {
      p50s.push_back(v);
    }
  }
  if (static_cast<int>(p50s.size()) != n) {
    throw bridge::Error("contention child processes failed");
  }
  return quantile(p50s, 0.5);
}

}  // namespace

int contention_child(double seconds) {
  const bridge::netlist::Module input = sweep_variant(0);
  const bridge::cells::CellLibrary& lsi = bridge::cells::lsi_library();
  Synthesizer(lsi, sweep_options(1)).synthesize_netlist(input);  // warm
  std::vector<double> lat = sweep_latencies(lsi, input, seconds);
  std::printf("contention_p50_ms %.6f ops %zu\n", quantile(lat, 0.5),
              lat.size());
  return 0;
}

RunResult run_sweep_netlist(Env& env) {
  constexpr long kRoundOps = 16;  // ~0.5 s per round
  const bridge::cells::CellLibrary& lsi = env.registry.at("LSI_LGC15");
  const bridge::dtas::SpaceOptions opts = sweep_options(env.threads);
  const std::vector<int> selection = sweep_selection(env.opt.seed);
  std::vector<bridge::netlist::Module> inputs;
  for (int idx : selection) inputs.push_back(sweep_variant(idx));

  // First touch: one synthesis per distinct input fills the process-wide
  // template cache; these fronts are the ones the oracle checks.
  std::vector<std::vector<AlternativeDesign>> fronts;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    Synthesizer s(lsi, opts);
    fronts.push_back(s.synthesize_netlist(inputs[k]));
    if (!matches(env, sweep_key(selection[k]), front_digest(fronts.back()),
                 nullptr)) {
      env.note_failure(sweep_key(selection[k]) + ": first-touch front differs "
                       "from its golden digest");
    }
  }
  const double setup_s = env.setup_s();
  if (env.opt.setup_only) return setup_only_result(setup_s);

  Stream stream = sweep_stream(env.opt.seed);
  std::vector<long> op_count(inputs.size(), 0);
  SpanBuffer spans;
  LayerCounters counters;
  counters.eval_threads = env.threads;
  auto op = [&](long id, bool traced) -> OpOutcome {
    const int k = stream.next();
    ++op_count[k];
    const bridge::netlist::Module& input = inputs[k];
    SpanBuffer* buf = traced ? &spans : nullptr;
    OpOutcome o;
    try {
      const std::int64_t t0 = now_ns();
      std::vector<AlternativeDesign> alts;
      std::unique_ptr<Synthesizer> s;
      {
        Scope op_span(buf, "op", id);
        {
          Scope sc(buf, "api.session", id);
          s = std::make_unique<Synthesizer>(lsi, opts);
        }
        if (traced) {
          std::vector<bridge::dtas::SpecNode*> nodes;
          {
            Scope sc(buf, "dtas.expand", id);
            for (const auto& inst : input.instances()) {
              nodes.push_back(s->space().expand(inst.spec));
            }
          }
          {
            Scope sc(buf, "dtas.evaluate", id);
            for (auto* n : nodes) s->space().evaluate(n);
          }
        }
        const double cpu0 = traced ? process_cpu_ms() : 0.0;
        const std::int64_t w0 = now_ns();
        {
          Scope sc(buf, "dtas.extract", id);
          alts = s->synthesize_netlist(input);
          add_derived_phases(buf, sc.index(), id, s->last_profile(), false);
        }
        if (traced) {
          counters.eval_cpu_ms += process_cpu_ms() - cpu0;
          counters.eval_wall_ms += ms_between(w0, now_ns());
        }
      }
      o.latency_ms = ms_between(t0, now_ns());
      o.ok = matches(env, sweep_key(selection[k]), front_digest(alts), nullptr);
      if (traced) {
        ++counters.ops;
        counters.add_space(s->space().stats());
        counters.extract_hits += s->extraction_cache().stats().hits;
        counters.extract_misses += s->extraction_cache().stats().misses;
        counters.extract_cache_bytes +=
            static_cast<double>(s->extraction_cache().stats().bytes);
      }
    } catch (const std::exception& e) {
      env.note_failure(std::string("sweep op threw: ") + e.what());
    }
    return o;
  };

  Window w;
  TraceExtras extras;
  if (!env.opt.trace) {
    w = run_window(env, 1, env.opt.seconds, kRoundOps,
                   [&](int, long id) { return op(id, false); });
  } else {
    const Window plain = run_window(env, 1, env.opt.seconds / 2, kRoundOps,
                                    [&](int, long id) { return op(id, false); });
    w = run_window(env, 1, env.opt.seconds / 2, kRoundOps,
                   [&](int, long id) { return op(id, true); });
    extras.untraced_ops_per_s = ops_per_s(plain);
    extras.traced_ops_per_s = ops_per_s(w);
    w.attempted += plain.attempted;
    w.failed += plain.failed;
    // Contention control: the same single-thread work as threads of one
    // process, then as separate processes.
    const int n = 4;
    const double leg_s = 2.0;
    const double p50_threads = contention_threads(lsi, n, leg_s);
    const double p50_procs = contention_processes(n, leg_s);
    extras.inproc_slowdown = p50_procs > 0 ? p50_threads / p50_procs : 0.0;
    std::fprintf(stderr,
                 "perfbench: contention control: p50 %.2f ms as %d threads, "
                 "%.2f ms as %d processes\n",
                 p50_threads, n, p50_procs, n);
  }

  // Untimed: the thread-count invariant (fronts at threads = 1 must match
  // the same golden digests), then the functional oracle.
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    Synthesizer s(lsi, sweep_options(1));
    if (!matches(env, sweep_key(selection[k]),
                 front_digest(s.synthesize_netlist(inputs[k])), nullptr)) {
      env.note_failure(sweep_key(selection[k]) +
                       ": front at threads = 1 differs from its golden digest");
    }
  }
  std::vector<OracleJob> jobs;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    jobs.push_back({sweep_key(selection[k]), nullptr, &inputs[k], &fronts[k],
                    sub_seed(env.opt.seed, "oracle-" + sweep_key(selection[k]))});
  }
  const std::vector<OracleReport> oracle = run_oracle(jobs, env.threads);
  RunResult r = finish(env, w, oracle, op_count, setup_s, env.opt.trace);
  if (env.opt.trace) {
    for (const OracleReport& o : oracle) counters.lint_errors += o.lint_errors;
    extras.extract_cache_kb =
        counters.extract_cache_bytes / 1024.0 /
        static_cast<double>(std::max<long>(counters.ops, 1));
    per_layer_metrics(env, {&spans}, counters, extras, r.metrics);
    write_trace(env, {&spans});
  }
  return r;
}

// --- oneshot_specs ---------------------------------------------------------------

namespace {

/// run_request's steps one layer at a time, on `warm` or, when null, on a
/// fresh session (a one-shot). Returns the result; `payload` receives its
/// wire encoding.
SynthesisResult traced_request(const Env& env, const SynthesisRequest& req,
                               Synthesizer* warm, SpanBuffer* buf, long id,
                               LayerCounters& c, std::string& payload) {
  std::unique_ptr<Synthesizer> fresh;
  Synthesizer* session = warm;
  if (session == nullptr) {
    Scope sc(buf, "api.session", id);
    fresh = bridge::api::make_session(req, env.registry.at(req.library));
    session = fresh.get();
  }
  const bridge::dtas::SpaceStats before = session->space().stats();
  const bridge::dtas::ExtractionCache::Stats ex_before =
      session->extraction_cache().stats();
  bridge::dtas::SpecNode* node = nullptr;
  {
    Scope sc(buf, "dtas.expand", id);
    node = session->space().expand(*req.spec);
  }
  {
    // Requests evaluate at threads = 1, on this caller's thread; other
    // callers' CPU must not count.
    const double cpu0 = thread_cpu_ms();
    const std::int64_t w0 = now_ns();
    Scope sc(buf, "dtas.evaluate", id);
    session->space().evaluate(node);
    sc.close();
    c.eval_cpu_ms += thread_cpu_ms() - cpu0;
    c.eval_wall_ms += ms_between(w0, now_ns());
  }
  std::vector<AlternativeDesign> alts;
  {
    Scope sc(buf, "dtas.extract", id);
    alts = session->synthesize(*req.spec);
    add_derived_phases(buf, sc.index(), id, session->last_profile(), false);
  }
  SynthesisResult res;
  if (req.options.verify) {
    Scope sc(buf, "lint", id);
    bridge::lint::Cache lint_cache;
    for (const AlternativeDesign& a : alts) {
      for (auto& d : bridge::lint::lint_design(*a.design, lint_cache)) {
        res.diagnostics.push_back(std::move(d));
      }
    }
  }
  {
    Scope sc(buf, "vhdl", id);
    bridge::vhdl::EmissionCache emission;
    for (const AlternativeDesign& a : alts) {
      ResultAlternative ra;
      ra.area = a.metric.area;
      ra.delay = a.metric.delay;
      ra.description = a.description;
      if (req.options.emit_vhdl) {
        ra.vhdl = bridge::vhdl::emit_structural(*a.design, emission);
      }
      c.vhdl_bytes += static_cast<double>(ra.vhdl.size());
      res.alternatives.push_back(std::move(ra));
    }
  }
  const bridge::dtas::SpaceStats& after = session->space().stats();
  const bridge::dtas::ExtractionCache::Stats& ex_after =
      session->extraction_cache().stats();
  {
    Scope sc(buf, "api.encode", id);
    res.stats.combinations_evaluated =
        after.combinations_evaluated - before.combinations_evaluated;
    res.stats.combinations_pruned =
        after.combinations_pruned - before.combinations_pruned;
    res.stats.template_cache_hits =
        after.template_cache_hits - before.template_cache_hits;
    res.stats.template_cache_misses =
        after.template_cache_misses - before.template_cache_misses;
    res.stats.extraction_cache_hits = ex_after.hits - ex_before.hits;
    res.stats.extraction_cache_misses = ex_after.misses - ex_before.misses;
    payload = res.to_json();
  }
  c.response_bytes += static_cast<double>(payload.size());
  c.add_space(after, before);
  c.extract_hits += static_cast<double>(res.stats.extraction_cache_hits);
  c.extract_misses += static_cast<double>(res.stats.extraction_cache_misses);
  c.extract_cache_bytes += static_cast<double>(ex_after.bytes);
  return res;
}

long error_diagnostics(const SynthesisResult& r) {
  return std::count_if(r.diagnostics.begin(), r.diagnostics.end(),
                       [](const bridge::lint::Diagnostic& d) {
                         return d.severity == bridge::lint::Severity::kError;
                       });
}

}  // namespace

RunResult run_oneshot_specs(Env& env) {
  constexpr long kRoundOps = 1000;  // ~0.5 s per round
  const std::vector<SpecInput> universe = spec_universe();
  std::vector<SynthesisRequest> reqs;
  for (const SpecInput& in : universe) {
    SynthesisRequest req;
    req.library = in.library;
    req.spec = in.spec;
    req.options.emit_vhdl = true;
    req.options.verify = true;
    reqs.push_back(std::move(req));
  }
  // First touch: every input once (the template cache is the only state a
  // one-shot flow keeps warm across requests).
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const SynthesisResult r = bridge::api::run_request(reqs[i], env.registry);
    const std::string vhdl = vhdl_digest(r.alternatives);
    if (!r.ok() || !matches(env, universe[i].key(),
                            front_digest(r.alternatives), &vhdl)) {
      env.note_failure(universe[i].key() + ": first-touch front differs from "
                       "its golden digest");
    }
  }
  const double setup_s = env.setup_s();
  if (env.opt.setup_only) return setup_only_result(setup_s);

  // One closed-loop caller per thread, each with its own stream, counters
  // and spans.
  const int callers = env.threads;
  std::vector<Stream> streams;
  for (int c = 0; c < callers; ++c) streams.push_back(oneshot_stream(env.opt.seed, c));
  std::vector<std::vector<long>> counts(callers,
                                        std::vector<long>(reqs.size(), 0));
  std::vector<SpanBuffer> spans;
  for (int c = 0; c < callers; ++c) spans.emplace_back(c);
  std::vector<LayerCounters> counters(callers);
  auto op = [&](int c, long id, bool traced) -> OpOutcome {
    const int i = streams[c].next();
    ++counts[c][i];
    OpOutcome o;
    const std::int64_t t0 = now_ns();
    SynthesisResult r;
    std::string payload;  // the one-shot's output: the encoded result
    if (traced) {
      Scope op_span(&spans[c], "op", id);
      try {
        r = traced_request(env, reqs[i], nullptr, &spans[c], id, counters[c],
                           payload);
      } catch (const std::exception& e) {
        r = SynthesisResult::make_error("error", e.what());
      }
      ++counters[c].ops;
    } else {
      r = bridge::api::run_request(reqs[i], env.registry);
      payload = r.to_json();
    }
    o.latency_ms = ms_between(t0, now_ns());
    const std::string vhdl = vhdl_digest(r.alternatives);
    const long lint_errors = error_diagnostics(r);
    counters[c].lint_errors += static_cast<double>(lint_errors);
    o.ok = r.ok() && lint_errors == 0 &&
           matches(env, universe[i].key(), front_digest(r.alternatives), &vhdl);
    if (!o.ok) env.note_failure(universe[i].key() + ": op failed or differs");
    return o;
  };

  Window w;
  TraceExtras extras;
  if (!env.opt.trace) {
    w = run_window(env, callers, env.opt.seconds, kRoundOps,
                   [&](int c, long id) { return op(c, id, false); });
  } else {
    const Window plain =
        run_window(env, callers, env.opt.seconds / 2, kRoundOps,
                   [&](int c, long id) { return op(c, id, false); });
    w = run_window(env, callers, env.opt.seconds / 2, kRoundOps,
                   [&](int c, long id) { return op(c, id, true); });
    extras.untraced_ops_per_s = ops_per_s(plain);
    extras.traced_ops_per_s = ops_per_s(w);
    w.attempted += plain.attempted;
    w.failed += plain.failed;
  }
  const std::vector<long> op_count = sum_counts(counts);

  // Untimed oracle over every distinct input the window produced: rebuild
  // its front in process (digest-identical, VHDL included, to what the ops
  // returned) and check the designs themselves.
  std::vector<std::vector<AlternativeDesign>> fronts(reqs.size());
  std::vector<OracleJob> jobs;
  std::vector<long> job_ops;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (op_count[i] == 0) continue;
    job_ops.push_back(op_count[i]);
    Synthesizer s(env.registry.at(reqs[i].library),
                  reqs[i].options.space_options());
    fronts[i] = s.synthesize(*reqs[i].spec);
    const std::string vhdl = vhdl_digest(fronts[i]);
    if (!matches(env, universe[i].key(), front_digest(fronts[i]), &vhdl)) {
      env.note_failure(universe[i].key() +
                       ": in-process front differs from its golden digest");
    }
    jobs.push_back({universe[i].key(), &*reqs[i].spec, nullptr, &fronts[i],
                    sub_seed(env.opt.seed, "oracle-" + universe[i].key())});
  }
  const std::vector<OracleReport> oracle = run_oracle(jobs, env.threads);
  RunResult r = finish(env, w, oracle, job_ops, setup_s, env.opt.trace);
  if (env.opt.trace) {
    LayerCounters total;
    for (const LayerCounters& c : counters) total.merge(c);
    for (const OracleReport& o : oracle) total.lint_errors += o.lint_errors;
    extras.extract_cache_kb =
        total.extract_cache_bytes / 1024.0 /
        static_cast<double>(std::max<long>(total.ops, 1));
    const std::vector<const SpanBuffer*> bufs = buffers(spans);
    per_layer_metrics(env, bufs, total, extras, r.metrics);
    write_trace(env, bufs);
  }
  return r;
}

// --- serve_warm ------------------------------------------------------------------

namespace {

constexpr int kServeClients = 4;
constexpr int kServeWorkers = 2;
constexpr long kServeRoundOps = 8000;  // ~0.5 s per round

struct ServeRequest {
  SpecInput input;
  bool vhdl = false;
  std::string frame;  // pre-encoded request frame (untraced path)
};

std::string encode_request(const SpecInput& in, bool vhdl, bool profile) {
  SynthesisRequest req;
  req.library = in.library;
  req.spec = in.spec;
  req.options.emit_vhdl = vhdl;
  req.options.include_profile = profile;
  bridge::api::Json j = req.encode();
  j.set("method", "synthesize");
  return j.dump();
}

/// One closed-loop client connection.
struct Client {
  int fd = -1;
  explicit Client(int port) : fd(bridge::server::connect_tcp(port)) {}
  ~Client() { bridge::server::close_socket(fd); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::string call(const std::string& frame) {
    bridge::server::write_frame(fd, frame);
    std::string payload;
    if (!bridge::server::read_frame(fd, payload)) {
      throw bridge::Error("server closed the connection");
    }
    return payload;
  }
};

bool check_response(const Env& env, const ServeRequest& rq,
                    const SynthesisResult& res) {
  if (!res.ok()) return false;
  if (rq.vhdl) {
    const std::string vhdl = vhdl_digest(res.alternatives);
    return matches(env, rq.input.key(), front_digest(res.alternatives), &vhdl);
  }
  return matches(env, rq.input.key(), front_digest(res.alternatives), nullptr);
}

/// The working set's fronts, rebuilt in process (digest-identical, VHDL
/// included, to what the requests returned) and checked by the oracle.
std::vector<OracleReport> working_set_oracle(
    Env& env, const std::vector<ServeRequest>& set) {
  std::vector<std::vector<AlternativeDesign>> fronts(set.size() / 2);
  std::vector<OracleJob> jobs;
  for (std::size_t i = 0; i < fronts.size(); ++i) {
    const SpecInput& in = set[2 * i].input;
    Synthesizer s(env.registry.at(in.library));
    fronts[i] = s.synthesize(in.spec);
    const std::string vhdl = vhdl_digest(fronts[i]);
    if (!matches(env, in.key(), front_digest(fronts[i]), &vhdl)) {
      env.note_failure(in.key() + ": in-process front differs from its golden "
                       "digest");
    }
    jobs.push_back({in.key(), &in.spec, nullptr, &fronts[i],
                    sub_seed(env.opt.seed, "oracle-" + in.key())});
  }
  return run_oracle(jobs, env.threads);
}

/// The working set as request frames: [2i] without VHDL, [2i+1] with.
std::vector<ServeRequest> working_set_requests() {
  std::vector<ServeRequest> set;
  for (const SpecInput& in : serve_working_set()) {
    for (bool vhdl : {false, true}) {
      set.push_back({in, vhdl, encode_request(in, vhdl, false)});
    }
  }
  return set;
}

/// Per-client results of a window.
struct ClientLog {
  explicit ClientLog(std::uint64_t seed) : latency(kLatencySamples, seed) {}
  Reservoir latency;
  std::vector<long> op_count;  // per working-set input
  long attempted = 0, failed = 0;
  LayerCounters counters;
  std::string error;
};

}  // namespace

RunResult run_serve_warm(Env& env) {
  bridge::server::ServerOptions so;
  so.workers = kServeWorkers;
  bridge::server::SynthesisServer server(env.registry, so);
  server.start();
  const int port = server.port();

  const std::vector<ServeRequest> set = working_set_requests();
  // Warm every worker slot's sessions: requests go to whichever worker is
  // free, so several passes over the set from every connection leave each
  // slot with every (library, spec) synthesized.
  {
    std::atomic<int> next{0};
    std::atomic<long> bad{0};
    const int passes = 6;
    const int total = passes * static_cast<int>(set.size());
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&] {
        try {
          Client client(port);
          for (int i = next.fetch_add(1); i < total; i = next.fetch_add(1)) {
            const ServeRequest& rq = set[i % set.size()];
            const SynthesisResult res =
                SynthesisResult::from_json(client.call(rq.frame));
            if (!check_response(env, rq, res)) bad.fetch_add(1);
          }
        } catch (const std::exception&) {
          bad.fetch_add(1);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (bad.load() != 0) env.note_failure("serve warm-up responses failed");
  }
  const double setup_s = env.setup_s();
  if (env.opt.setup_only) {
    server.stop();
    return setup_only_result(setup_s);
  }

  std::vector<SpanBuffer> spans;
  for (int c = 0; c < kServeClients; ++c) spans.emplace_back(c);
  std::vector<long> op_count(set.size() / 2, 0);
  auto window = [&](double seconds, bool traced, const std::string& phase) {
    std::vector<ClientLog> logs;
    for (int c = 0; c < kServeClients; ++c) {
      logs.emplace_back(sub_seed(env.opt.seed, "latency") + c);
      logs.back().op_count.assign(op_count.size(), 0);
    }
    std::atomic<long> next_id{0};
    RoundClock rounds(kServeRoundOps);
    rounds.start();
    const double cpu0 = process_cpu_ms();
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline =
        t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (int c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        SpanBuffer* buf = traced ? &spans[c] : nullptr;
        ServeMix mix(env.opt.seed, phase, c);
        try {
          Client client(port);
          while (now_ns() < deadline) {
            const ServeMix::Draw d = mix.next();
            const ServeRequest& rq = set[2 * d.input + (d.vhdl ? 1 : 0)];
            ++log.op_count[d.input];
            const long id = next_id.fetch_add(1);
            const std::int64_t r0 = now_ns();
            SynthesisResult res;
            bool ok = false;
            try {
              if (!traced) {
                res = SynthesisResult::from_json(client.call(rq.frame));
              } else {
                Scope op_span(buf, "op", id);
                std::string frame;
                {
                  Scope sc(buf, "api.encode", id);
                  frame = encode_request(rq.input, rq.vhdl, true);
                }
                std::string payload;
                {
                  Scope rtt(buf, "server.rtt", id);
                  const int rtt_index = rtt.index();
                  payload = client.call(frame);
                  rtt.close();
                  const SpanRecord rec = buf->spans()[rtt_index];
                  log.counters.response_bytes +=
                      static_cast<double>(payload.size());
                  {
                    Scope sc(buf, "api.decode", id);
                    res = SynthesisResult::from_json(payload);
                  }
                  // The server's own time, centred in the round trip, with
                  // its synthesis phases from the returned profile.
                  const std::int64_t rtt_ns = rec.end_ns - rec.start_ns;
                  const auto handle_ns =
                      std::min<std::int64_t>(rtt_ns, res.server_ms * 1e6);
                  const int handle = buf->add_derived(
                      "server.handle", id, rtt_index,
                      rec.start_ns + (rtt_ns - handle_ns) / 2, handle_ns);
                  if (res.has_profile) {
                    add_derived_phases(buf, handle, id, res.profile, true);
                  }
                }
                {
                  // The response encode the server paid, replayed on the
                  // decoded result (the same object, so the same work).
                  Scope sc(buf, "api.encode", id);
                  (void)res.to_json();
                }
                ++log.counters.ops;
                for (const ResultAlternative& a : res.alternatives) {
                  log.counters.vhdl_bytes += static_cast<double>(a.vhdl.size());
                }
                log.counters.template_hits += res.stats.template_cache_hits;
                log.counters.template_misses += res.stats.template_cache_misses;
                log.counters.evaluated += res.stats.combinations_evaluated;
                log.counters.pruned += res.stats.combinations_pruned;
                log.counters.extract_hits += res.stats.extraction_cache_hits;
                log.counters.extract_misses += res.stats.extraction_cache_misses;
                log.counters.spec_nodes +=
                    static_cast<double>(res.profile.counter("expand.spec_nodes"));
                log.counters.shards +=
                    static_cast<double>(res.profile.counter("evaluate.odometer.shards"));
              }
              ok = check_response(env, rq, res);
            } catch (const std::exception& e) {
              if (log.error.empty()) log.error = e.what();
            }
            log.latency.add(ms_between(r0, now_ns()));
            rounds.op_done();
            ++log.attempted;
            if (!ok) ++log.failed;
          }
        } catch (const std::exception& e) {
          if (log.error.empty()) log.error = e.what();
          ++log.failed;
          ++log.attempted;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Window w;
    w.wall_s = ms_between(t0, now_ns()) / 1e3;
    w.cpu_ms = process_cpu_ms() - cpu0;
    w.peak_rss_mb = peak_rss_mb();
    rounds.finish(w);
    LayerCounters total;
    for (const ClientLog& log : logs) {
      w.latency_ms.insert(w.latency_ms.end(), log.latency.values().begin(),
                          log.latency.values().end());
      w.attempted += log.attempted;
      w.failed += log.failed;
      for (std::size_t i = 0; i < op_count.size(); ++i) {
        op_count[i] += log.op_count[i];
      }
      if (!log.error.empty()) env.note_failure("serve client: " + log.error);
      const LayerCounters& c = log.counters;
      total.ops += c.ops;
      total.spec_nodes += c.spec_nodes;
      total.template_hits += c.template_hits;
      total.template_misses += c.template_misses;
      total.evaluated += c.evaluated;
      total.pruned += c.pruned;
      total.shards += c.shards;
      total.extract_hits += c.extract_hits;
      total.extract_misses += c.extract_misses;
      total.vhdl_bytes += c.vhdl_bytes;
      total.response_bytes += c.response_bytes;
    }
    return std::make_pair(w, total);
  };

  Window w;
  TraceExtras extras;
  LayerCounters counters;
  if (!env.opt.trace) {
    w = window(env.opt.seconds, false, "serve").first;
  } else {
    const Window plain = window(env.opt.seconds / 2, false, "serve").first;
    const bridge::obs::Snapshot before = bridge::obs::Registry::global().snapshot();
    auto traced = window(env.opt.seconds / 2, true, "serve-traced");
    const bridge::obs::Snapshot delta =
        bridge::obs::diff(bridge::obs::Registry::global().snapshot(), before);
    w = traced.first;
    counters = traced.second;
    extras.untraced_ops_per_s = ops_per_s(plain);
    extras.traced_ops_per_s = ops_per_s(w);
    w.attempted += plain.attempted;
    w.failed += plain.failed;
    if (auto it = delta.histograms.find("base.thread_pool.task_latency_us");
        it != delta.histograms.end()) {
      extras.pool_task_us_p50 = it->second.percentile(0.5);
      extras.pool_task_us_p90 = it->second.percentile(0.9);
    }
    if (auto it = delta.gauges.find("dtas.extract.extraction_cache.bytes");
        it != delta.gauges.end()) {
      extras.extract_cache_kb = static_cast<double>(it->second) / 1024.0;
    }
  }
  server.stop();

  const std::vector<OracleReport> oracle = working_set_oracle(env, set);
  RunResult r = finish(env, w, oracle, op_count, setup_s, env.opt.trace);
  if (env.opt.trace) {
    for (const OracleReport& o : oracle) counters.lint_errors += o.lint_errors;
    std::vector<const SpanBuffer*> bufs;
    for (const SpanBuffer& b : spans) bufs.push_back(&b);
    per_layer_metrics(env, bufs, counters, extras, r.metrics);
    write_trace(env, bufs);
  }
  return r;
}

// --- warm_requests ---------------------------------------------------------------

RunResult run_warm_requests(Env& env) {
  constexpr long kRoundOps = 8000;  // ~0.5 s per round
  const std::vector<ServeRequest> set = working_set_requests();
  // One closed-loop caller per thread, each with its own warm session per
  // library — as a server worker slot keeps them (the working set's
  // requests share one options fingerprint) — and its own request mix.
  const int callers = env.threads;
  using Sessions = std::map<std::string, std::unique_ptr<Synthesizer>>;
  std::vector<Sessions> sessions(callers);
  for (Sessions& mine : sessions) {
    for (const ServeRequest& rq : set) {
      const SynthesisRequest req = SynthesisRequest::from_json(rq.frame);
      auto& session = mine[req.library];
      if (session == nullptr) {
        session = bridge::api::make_session(req, env.registry.at(req.library));
      }
      if (!check_response(env, rq, bridge::api::run_request(req, *session))) {
        env.note_failure(rq.input.key() + ": warm-up front differs from its "
                         "golden digest");
      }
    }
  }
  const double setup_s = env.setup_s();
  if (env.opt.setup_only) return setup_only_result(setup_s);

  std::vector<ServeMix> mixes;
  for (int c = 0; c < callers; ++c) mixes.emplace_back(env.opt.seed, "serve", c);
  std::vector<std::vector<long>> counts(callers,
                                        std::vector<long>(set.size() / 2, 0));
  std::vector<SpanBuffer> spans;
  for (int c = 0; c < callers; ++c) spans.emplace_back(c);
  std::vector<LayerCounters> counters(callers);
  auto op = [&](int c, long id, bool traced) -> OpOutcome {
    const ServeMix::Draw d = mixes[c].next();
    const ServeRequest& rq = set[2 * d.input + (d.vhdl ? 1 : 0)];
    ++counts[c][d.input];
    OpOutcome o;
    const std::int64_t t0 = now_ns();
    SynthesisResult back;
    try {
      if (!traced) {
        const SynthesisRequest req = SynthesisRequest::from_json(rq.frame);
        const std::string payload =
            bridge::api::run_request(req, *sessions[c].at(req.library))
                .to_json();
        back = SynthesisResult::from_json(payload);
      } else {
        SpanBuffer* buf = &spans[c];
        Scope op_span(buf, "op", id);
        SynthesisRequest req;
        {
          Scope sc(buf, "api.decode", id);
          req = SynthesisRequest::from_json(rq.frame);
        }
        Synthesizer* session = nullptr;
        {
          Scope sc(buf, "api.session", id);
          session = sessions[c].at(req.library).get();
        }
        std::string payload;
        traced_request(env, req, session, buf, id, counters[c], payload);
        {
          Scope sc(buf, "api.decode", id);
          back = SynthesisResult::from_json(payload);
        }
        ++counters[c].ops;
      }
      o.latency_ms = ms_between(t0, now_ns());
      o.ok = check_response(env, rq, back);
      if (!o.ok) env.note_failure(rq.input.key() + ": request failed or differs");
    } catch (const std::exception& e) {
      env.note_failure(std::string("warm request threw: ") + e.what());
    }
    return o;
  };

  Window w;
  TraceExtras extras;
  if (!env.opt.trace) {
    w = run_window(env, callers, env.opt.seconds, kRoundOps,
                   [&](int c, long id) { return op(c, id, false); });
  } else {
    const Window plain =
        run_window(env, callers, env.opt.seconds / 2, kRoundOps,
                   [&](int c, long id) { return op(c, id, false); });
    w = run_window(env, callers, env.opt.seconds / 2, kRoundOps,
                   [&](int c, long id) { return op(c, id, true); });
    extras.untraced_ops_per_s = ops_per_s(plain);
    extras.traced_ops_per_s = ops_per_s(w);
    w.attempted += plain.attempted;
    w.failed += plain.failed;
  }
  const std::vector<OracleReport> oracle = working_set_oracle(env, set);
  RunResult r =
      finish(env, w, oracle, sum_counts(counts), setup_s, env.opt.trace);
  if (env.opt.trace) {
    LayerCounters total;
    for (const LayerCounters& c : counters) total.merge(c);
    for (const OracleReport& o : oracle) total.lint_errors += o.lint_errors;
    for (const Sessions& mine : sessions) {
      for (const auto& [lib, session] : mine) {
        extras.extract_cache_kb +=
            static_cast<double>(session->extraction_cache().stats().bytes) /
            1024.0;
      }
    }
    const std::vector<const SpanBuffer*> bufs = buffers(spans);
    per_layer_metrics(env, bufs, total, extras, r.metrics);
    write_trace(env, bufs);
  }
  return r;
}

}  // namespace perfbench
