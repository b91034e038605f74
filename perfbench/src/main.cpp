// perfbench: the repository's benchmark of record. perfbench/run.py builds
// and drives it; see perfbench/README.md.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--setup-only] --golden FILE --out-dir DIR
//   perfbench gen-golden --golden FILE
//   perfbench selftest --golden FILE
//   perfbench contention-child --seconds S
//
// `run` prints one JSON result line last on stdout and exits 0 only when
// every op and every oracle check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/api.h"
#include "bench.h"
#include "cells/registry.h"
#include "dtas/synthesizer.h"
#include "inputs.h"
#include "util.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  return 2;
}

void print_result(const RunResult& r) {
  bridge::api::Json metrics = bridge::api::Json::object();
  for (const auto& [name, v] : r.metrics.items()) {
    bridge::api::Json m = bridge::api::Json::object();
    m.set("value", v.first).set("unit", v.second);
    metrics.set(name, std::move(m));
  }
  bridge::api::Json out = bridge::api::Json::object();
  out.set("correct", r.correct)
      .set("attempted", r.attempted)
      .set("failed", r.failed)
      .set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  std::fflush(stdout);
}

}  // namespace

namespace perfbench {

int generate_golden(const std::string& path) {
  Env env;
  common_setup(env);
  Golden g;
  for (int i = 0; i < kSweepUniverse; ++i) {
    const bridge::netlist::Module input = sweep_variant(i);
    std::string digests[2];
    long n = 0;
    for (int t : {1, 4}) {
      bridge::dtas::Synthesizer s(env.registry.at("LSI_LGC15"),
                                  sweep_options(t));
      const auto alts = s.synthesize_netlist(input);
      digests[t == 1 ? 0 : 1] = front_digest(alts);
      n = static_cast<long>(alts.size());
      std::fprintf(stderr, "%s t%d: %zu alternatives, %ld+%ld combinations\n",
                   sweep_key(i).c_str(), t, alts.size(),
                   s.space().stats().combinations_evaluated,
                   s.space().stats().combinations_pruned);
    }
    if (digests[0] != digests[1] || n == 0) {
      std::fprintf(stderr, "%s: fronts differ across thread counts\n",
                   sweep_key(i).c_str());
      return 1;
    }
    g.set(sweep_key(i), {digests[0], "", n});
  }
  for (const SpecInput& in : spec_universe()) {
    bridge::api::SynthesisRequest req;
    req.library = in.library;
    req.spec = in.spec;
    req.options.emit_vhdl = true;
    const bridge::api::SynthesisResult r =
        bridge::api::run_request(req, env.registry);
    bridge::dtas::Synthesizer s(env.registry.at(in.library),
                                req.options.space_options());
    const auto alts = s.synthesize(in.spec);
    if (!r.ok() || alts.empty() ||
        front_digest(r.alternatives) != front_digest(alts) ||
        vhdl_digest(r.alternatives) != vhdl_digest(alts)) {
      std::fprintf(stderr, "%s: unusable input (status %s, %zu alternatives)\n",
                   in.key().c_str(), r.status.c_str(), alts.size());
      return 1;
    }
    g.set(in.key(), {front_digest(alts), vhdl_digest(alts),
                     static_cast<long>(alts.size())});
  }
  g.save(path);
  std::fprintf(stderr, "wrote %zu golden digests to %s\n", g.size(),
               path.c_str());
  return 0;
}

namespace {

/// The first `n` inputs a workload's stream hands the program for `seed`,
/// serialized as the program receives them.
std::string stream_text(const std::string& workload, std::uint64_t seed,
                        int n) {
  std::string out;
  if (workload == "sweep_netlist") {
    const std::vector<int> sel = sweep_selection(seed);
    Stream s = sweep_stream(seed);
    for (int i = 0; i < n; ++i) {
      out += bridge::api::encode_netlist(sweep_variant(sel[s.next()])).dump();
    }
  } else if (workload == "oneshot_specs") {
    const std::vector<SpecInput> u = spec_universe();
    for (int c = 0; c < 4; ++c) {
      Stream s = oneshot_stream(seed, c);
      for (int i = 0; i < n; ++i) {
        const SpecInput& in = u[s.next()];
        out += in.library + bridge::api::encode_spec(in.spec).dump();
      }
    }
  } else {  // serve_warm and warm_requests share the working-set mix
    const std::vector<SpecInput> set = serve_working_set();
    for (int c = 0; c < 4; ++c) {
      ServeMix mix(seed, "serve", c);
      for (int i = 0; i < n; ++i) {
        const ServeMix::Draw d = mix.next();
        out += set[d.input].library +
               bridge::api::encode_spec(set[d.input].spec).dump() +
               (d.vhdl ? "+vhdl" : "");
      }
    }
  }
  return out;
}

}  // namespace

int self_test(const std::string& golden_path) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  // 1. Seeded streams: same seed, byte-identical stream; another seed, a
  //    different one.
  for (const char* w : {"sweep_netlist", "oneshot_specs", "warm_requests"}) {
    const std::string a = stream_text(w, 7, 48);
    check(a == stream_text(w, 7, 48),
          std::string(w) + ": same seed gives a byte-identical input stream");
    check(a != stream_text(w, 8, 48),
          std::string(w) + ": another seed gives another input stream");
  }
  // 2. Percentiles: nearest rank, and a percentile is reported only with at
  //    least ten samples beyond it.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  check(quantile(v, 0.5) == 50 && quantile(v, 0.9) == 90,
        "nearest-rank p50/p90 of 1..100 are 50/90");
  check(quantile_supported(100, 0.9) && !quantile_supported(99, 0.9),
        "p90 needs >= 100 samples (ten beyond)");
  check(quantile_supported(1000, 0.99) && !quantile_supported(999, 0.99),
        "p99 needs >= 1000 samples (ten beyond)");
  // 3. Digests: stable across two fresh sessions and equal to the golden
  //    digests; run.py --selftest repeats this process and compares the
  //    printed digests across the two runs.
  Env env;
  common_setup(env);
  try {
    env.golden = Golden::load(golden_path);
  } catch (const std::exception& e) {
    check(false, e.what());
    return 1;
  }
  Hasher all;
  const std::vector<SpecInput> u = spec_universe();
  for (int i = 0; i < static_cast<int>(u.size()); i += 17) {
    std::string d[2];
    for (std::string& x : d) {
      bridge::dtas::Synthesizer s(env.registry.at(u[i].library));
      x = front_digest(s.synthesize(u[i].spec));
    }
    const GoldenEntry* g = env.golden.find(u[i].key());
    check(d[0] == d[1] && g != nullptr && g->front == d[0],
          u[i].key() + ": digest stable across sessions and golden");
    all.bytes(d[0]);
  }
  std::printf("digests %s\n", all.hex().c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t t_start = now_ns();
  std::string mode = "run";
  int first = 1;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    mode = argv[1];
    first = 2;
  }
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--golden") {
      opt.golden_path = value();
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }

  try {
    if (mode == "contention-child") return contention_child(opt.seconds);
    if (mode == "gen-golden") return generate_golden(opt.golden_path);
    if (mode == "selftest") return self_test(opt.golden_path);
    if (mode != "run") return usage(("unknown mode " + mode).c_str());
    if (opt.seconds <= 0) return usage("--seconds must be positive");

    Env env;
    env.t_start = t_start;
    env.opt = opt;
    env.golden = Golden::load(opt.golden_path);
    common_setup(env);
    RunResult r;
    if (opt.workload == "sweep_netlist") {
      r = run_sweep_netlist(env);
    } else if (opt.workload == "oneshot_specs") {
      r = run_oneshot_specs(env);
    } else if (opt.workload == "serve_warm") {
      r = run_serve_warm(env);
    } else if (opt.workload == "warm_requests") {
      r = run_warm_requests(env);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    if (opt.setup_only) {
      r.correct = env.failures.empty();
      r.attempted = 1;
    }
    print_result(r);
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
