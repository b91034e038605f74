// Turning a window and a traced run into the result line's metrics.
#pragma once

#include <vector>

#include "bench.h"
#include "dtas/design_space.h"
#include "obs/profile.h"
#include "spans.h"

namespace perfbench {

/// Per-op counters summed over a traced window (the program's own
/// SpaceStats / cache stats / result sizes, read after each op).
struct LayerCounters {
  long ops = 0;
  double spec_nodes = 0, template_hits = 0, template_misses = 0;
  double evaluated = 0, pruned = 0, shards = 0;
  double extract_hits = 0, extract_misses = 0;
  double lint_errors = 0, vhdl_bytes = 0, response_bytes = 0;
  double extract_cache_bytes = 0;  // session cache footprint after each op
  double eval_cpu_ms = 0, eval_wall_ms = 0;
  int eval_threads = 1;

  void merge(const LayerCounters& o);
  /// Adds `after` - `before` (a fresh session's stats minus nothing).
  void add_space(const bridge::dtas::SpaceStats& after,
                 const bridge::dtas::SpaceStats& before = {});
};

/// Traced-run figures that do not come from spans or per-op counters.
struct TraceExtras {
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  double inproc_slowdown = 0;  // sweep_netlist only
  double pool_task_us_p50 = 0, pool_task_us_p90 = 0;  // serve_warm only
  double extract_cache_kb = 0;
};

/// Child spans under `parent` for the phases a Synthesizer profile reports
/// (expand / evaluate / verify, and extract when `include_extract`), laid
/// end to end from the parent's start. In-process the parent is the
/// synthesize call itself, whose self time is then the extract phase.
void add_derived_phases(SpanBuffer* buf, int parent, long op,
                        const bridge::obs::Profile& profile,
                        bool include_extract);

/// Every per-layer metric, in a fixed order.
void per_layer_metrics(const Env& env,
                       const std::vector<const SpanBuffer*>& buffers,
                       const LayerCounters& c, const TraceExtras& x,
                       Metrics& m);

}  // namespace perfbench
