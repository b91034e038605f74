#include "report.h"

#include <algorithm>

#include "dtas/design_space.h"
#include "util.h"

namespace perfbench {

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

void RoundClock::start() {
  std::lock_guard<std::mutex> lock(mu_);
  marks_.assign(1, Mark{now_ns(), process_cpu_ms()});
}

void RoundClock::op_done() {
  if ((done_.fetch_add(1) + 1) % k_ != 0) return;
  const Mark m{now_ns(), process_cpu_ms()};
  std::lock_guard<std::mutex> lock(mu_);
  marks_.push_back(m);
}

void RoundClock::finish(Window& w) const {
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const double s = ms_between(marks_[i - 1].t_ns, marks_[i].t_ns) / 1e3;
    w.round_ops_per_s.push_back(s > 0 ? static_cast<double>(k_) / s : 0.0);
    w.round_cpu_ms_per_op.push_back(
        (marks_[i].cpu_ms - marks_[i - 1].cpu_ms) / static_cast<double>(k_));
  }
}

void end_to_end_metrics(const Window& w, double setup_s, Metrics& out) {
  std::vector<double> lat = w.latency_ms;
  const double n = static_cast<double>(std::max<long>(w.attempted, 1));
  // Medians over rounds once there are enough of them; whole-window
  // figures otherwise.
  const bool rounds = w.round_ops_per_s.size() >= 5;
  std::vector<double> rate = w.round_ops_per_s;
  std::vector<double> cpu = w.round_cpu_ms_per_op;
  out.set("setup_s", setup_s, "s");
  out.set("ops_per_s",
          rounds ? quantile(rate, 0.5)
          : w.wall_s > 0
              ? static_cast<double>(w.attempted - w.failed) / w.wall_s
              : 0.0,
          "1/s");
  out.set("latency_p50_ms", quantile(lat, 0.5), "ms");
  out.set("latency_p90_ms", quantile(lat, 0.9), "ms");
  out.set("cpu_ms_per_op", rounds ? quantile(cpu, 0.5) : w.cpu_ms / n, "ms");
  out.set("peak_rss_mb", w.peak_rss_mb, "MB");
  out.set("success_rate", 1.0 - static_cast<double>(w.failed) / n, "fraction");
}

void add_derived_phases(SpanBuffer* buf, int parent, long op,
                        const bridge::obs::Profile& profile,
                        bool include_extract) {
  if (buf == nullptr || parent < 0) return;
  std::int64_t at = buf->spans()[parent].start_ns;
  for (const auto& [phase, ms] : profile.phases_ms) {
    const auto dur = static_cast<std::int64_t>(ms * 1e6);
    const char* layer = phase == "expand"     ? "dtas.expand"
                        : phase == "evaluate" ? "dtas.evaluate"
                        : phase == "verify"   ? "lint"
                        : phase == "extract" && include_extract
                            ? "dtas.extract"
                            : nullptr;
    if (layer != nullptr) buf->add_derived(layer, op, parent, at, dur);
    at += dur;
  }
}

void LayerCounters::merge(const LayerCounters& o) {
  ops += o.ops;
  spec_nodes += o.spec_nodes;
  template_hits += o.template_hits;
  template_misses += o.template_misses;
  evaluated += o.evaluated;
  pruned += o.pruned;
  shards += o.shards;
  extract_hits += o.extract_hits;
  extract_misses += o.extract_misses;
  lint_errors += o.lint_errors;
  vhdl_bytes += o.vhdl_bytes;
  response_bytes += o.response_bytes;
  extract_cache_bytes += o.extract_cache_bytes;
  eval_cpu_ms += o.eval_cpu_ms;
  eval_wall_ms += o.eval_wall_ms;
}

void LayerCounters::add_space(const bridge::dtas::SpaceStats& after,
                              const bridge::dtas::SpaceStats& before) {
  spec_nodes += after.spec_nodes - before.spec_nodes;
  template_hits += static_cast<double>(after.template_cache_hits -
                                       before.template_cache_hits);
  template_misses += static_cast<double>(after.template_cache_misses -
                                         before.template_cache_misses);
  evaluated += static_cast<double>(after.combinations_evaluated -
                                   before.combinations_evaluated);
  pruned += static_cast<double>(after.combinations_pruned -
                                before.combinations_pruned);
  shards += static_cast<double>(after.odometer_shards - before.odometer_shards);
}

namespace {
double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
}  // namespace

void per_layer_metrics(const Env& env,
                       const std::vector<const SpanBuffer*>& buffers,
                       const LayerCounters& c, const TraceExtras& x,
                       Metrics& m) {
  const LayerTimes t = layer_times(buffers, /*ops_only=*/true);
  const double ops = static_cast<double>(std::max<long>(c.ops, 1));
  auto self = [&](const char* name) {
    auto it = t.self_ms.find(name);
    return it == t.self_ms.end() ? 0.0 : it->second;
  };
  auto total = [&](const char* name) {
    auto it = t.total_ms.find(name);
    return it == t.total_ms.end() ? 0.0 : it->second;
  };
  const double combos = c.evaluated + c.pruned;
  const double op_wall = total("op");

  m.set("liberty.load_ms", env.liberty_load_ms, "ms");
  m.set("lola.rules_ms", env.lola_rules_ms, "ms");
  m.set("api.session_ms", self("api.session") / ops, "ms");
  m.set("dtas.expand_ms", self("dtas.expand") / ops, "ms");
  m.set("dtas.expand.spec_nodes", c.spec_nodes / ops, "count");
  m.set("dtas.expand.template_hit_ratio",
        ratio(c.template_hits, c.template_hits + c.template_misses), "ratio");
  m.set("dtas.evaluate_ms", self("dtas.evaluate") / ops, "ms");
  m.set("dtas.evaluate.combos", combos / ops, "count");
  m.set("dtas.evaluate.kept_ratio", ratio(c.evaluated, combos), "ratio");
  m.set("dtas.evaluate.ns_per_combo", ratio(self("dtas.evaluate") * 1e6, combos),
        "ns");
  m.set("dtas.evaluate.shards", c.shards / ops, "count");
  m.set("dtas.evaluate.cpu_per_wall",
        ratio(c.eval_cpu_ms, c.eval_wall_ms * c.eval_threads), "ratio");
  m.set("dtas.evaluate.inproc_slowdown", x.inproc_slowdown, "ratio");
  m.set("dtas.extract_ms", self("dtas.extract") / ops, "ms");
  m.set("dtas.extract.hit_ratio",
        ratio(c.extract_hits, c.extract_hits + c.extract_misses), "ratio");
  m.set("dtas.extract.modules", (c.extract_hits + c.extract_misses) / ops,
        "count");
  m.set("lint.verify_ms", self("lint") / ops, "ms");
  m.set("lint.errors", c.lint_errors, "count");
  m.set("vhdl.emit_ms", self("vhdl") / ops, "ms");
  m.set("vhdl.kb", c.vhdl_bytes / 1024.0 / ops, "KiB");
  m.set("api.encode_ms", self("api.encode") / ops, "ms");
  m.set("api.decode_ms", self("api.decode") / ops, "ms");
  m.set("api.response_kb", c.response_bytes / 1024.0 / ops, "KiB");
  m.set("server.rtt_ms", total("server.rtt") / ops, "ms");
  m.set("server.handle_ms", total("server.handle") / ops, "ms");
  m.set("server.queue_ms", self("server.handle") / ops, "ms");
  m.set("server.wire_ms", self("server.rtt") / ops, "ms");
  m.set("base.thread_pool.task_us_p50", x.pool_task_us_p50, "us");
  m.set("base.thread_pool.task_us_p90", x.pool_task_us_p90, "us");
  m.set("dtas.template_cache.kb",
        static_cast<double>(
            bridge::dtas::TemplateCache::global().snapshot().bytes) /
            1024.0,
        "KiB");
  m.set("dtas.extract_cache.kb", x.extract_cache_kb, "KiB");
  m.set("op.wall_ms", op_wall / ops, "ms");
  m.set("dtas.evaluate.share", ratio(self("dtas.evaluate"), op_wall), "ratio");
  m.set("synth.extract_lint_vhdl.share",
        ratio(self("dtas.extract") + self("lint") + self("vhdl"), op_wall),
        "ratio");
  // Share of the request's time outside the synthesis phases (the api and
  // server layers): of the round trip on serve_warm, of the op elsewhere.
  const double synth =
      self("dtas.expand") + self("dtas.evaluate") + self("dtas.extract");
  const double request = total("server.rtt") > 0 ? total("server.rtt") : op_wall;
  m.set("outside_synth.share", request > 0 ? 1.0 - synth / request : 0.0,
        "ratio");
  m.set("trace.ops_per_s_untraced", x.untraced_ops_per_s, "1/s");
  m.set("trace.ops_per_s_traced", x.traced_ops_per_s, "1/s");
  m.set("trace.overhead_ops_per_s", x.untraced_ops_per_s - x.traced_ops_per_s,
        "1/s");
}

}  // namespace perfbench
