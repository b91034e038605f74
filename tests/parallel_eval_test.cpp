// Parallel-vs-serial equivalence for the sharded design-space odometer.
//
// SpaceOptions::threads shards the plan odometer across worker threads;
// the contract (design_space.h) is that the result is *bit-identical* to
// the serial evaluator at every thread count: same alternative fronts,
// exactly equal metric doubles, same descriptions — across all three
// registry libraries, for spec-level synthesis and whole-netlist
// synthesis alike. Prune statistics are the one thing allowed to move:
// shards see different bound fronts, so combinations_pruned (and its
// complement combinations_evaluated) may differ between thread counts,
// but their sum — the enumerated combination count — may not, and the
// filtered fronts never may.
//
// These tests force small shard sizes so modest workloads genuinely
// exercise the parallel path (asserted via SpaceStats::parallel_odometers)
// even though their combination counts sit below the production shard
// threshold. Under -fsanitize=thread this file is the primary race
// exercise for the pool, the bound exchange, and the shard merge.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "base/diag.h"
#include "base/thread_pool.h"
#include "cells/registry.h"
#include "datapaths.h"
#include "dtas/synthesizer.h"
#include "liberty/liberty.h"
#include "netlist/netlist.h"
#include "oracle/oracle.h"

namespace bridge {
namespace {

using genus::ComponentSpec;

/// All three registry libraries: both built-ins plus the bundled Liberty
/// import.
const cells::LibraryRegistry& registry() {
  static cells::LibraryRegistry reg = [] {
    auto r = cells::LibraryRegistry::with_builtins();
    r.load_liberty_file(std::string(BRIDGE_LIBS_DIR) +
                        "/sample_sky130_subset.lib");
    return r;
  }();
  return reg;
}

/// Dense-sweep options with a shard size small enough that test-sized
/// odometers run parallel at the requested thread count.
dtas::SpaceOptions sweep_options(int threads) {
  dtas::SpaceOptions opt;
  opt.min_delay_gain = 0.0;
  opt.threads = threads;
  opt.min_combinations_per_shard = 16;
  return opt;
}

using Front = std::vector<dtas::AlternativeDesign>;

void expect_identical(const Front& a, const Front& b,
                      const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric.area, b[i].metric.area) << context << " alt " << i;
    EXPECT_EQ(a[i].metric.delay, b[i].metric.delay)
        << context << " alt " << i;
    EXPECT_EQ(a[i].description, b[i].description) << context << " alt " << i;
  }
}

TEST(ParallelEvaluation, SpecFrontsIdenticalAcrossThreadCounts) {
  const std::vector<std::pair<std::string, ComponentSpec>> specs = {
      {"Alu16", genus::make_alu_spec(16, genus::alu16_ops())},
      {"Adder32", genus::make_adder_spec(32)},
      {"Mul8x8", genus::make_multiplier_spec(8, 8)},
  };
  for (const cells::CellLibrary* lib : registry().all()) {
    for (const auto& [label, spec] : specs) {
      dtas::Synthesizer serial(*lib, sweep_options(1));
      const Front base = serial.synthesize(spec);
      EXPECT_EQ(serial.space().stats().parallel_odometers, 0)
          << lib->name() << "/" << label;
      for (int threads : {2, 8}) {
        dtas::Synthesizer parallel(*lib, sweep_options(threads));
        expect_identical(parallel.synthesize(spec), base,
                         lib->name() + "/" + label + " threads " +
                             std::to_string(threads));
      }
    }
  }
}

TEST(ParallelEvaluation, NetlistFrontsIdenticalAcrossThreadCounts) {
  const netlist::Module input = testutil::make_datapath8();
  ASSERT_TRUE(netlist::check_module(input).empty());
  for (const cells::CellLibrary* lib : registry().all()) {
    dtas::Synthesizer serial(*lib, sweep_options(1));
    const Front base = serial.synthesize_netlist(input);
    for (int threads : {2, 8}) {
      dtas::Synthesizer parallel(*lib, sweep_options(threads));
      expect_identical(parallel.synthesize_netlist(input), base,
                       lib->name() + " netlist threads " +
                           std::to_string(threads));
      // The point of the test: the parallel path must actually run. Only
      // the LSI book yields an odometer big enough to shard here; the
      // other libraries' sweeps stay under two shards and (correctly)
      // take the serial path.
      if (lib->name() == "LSI_LGC15") {
        EXPECT_GT(parallel.space().stats().parallel_odometers, 0)
            << lib->name() << " threads " << threads;
      }
    }
  }
}

TEST(ParallelEvaluation, MatchesReferenceEvaluatorAtEightThreads) {
  // Ties the parallel compiled evaluator all the way back to the original
  // functional evaluator in one step.
  const netlist::Module input = testutil::make_datapath8();
  dtas::Synthesizer a(cells::lsi_library(), sweep_options(8));
  dtas::Synthesizer b(cells::lsi_library(), sweep_options(1));
  expect_identical(a.synthesize_netlist(input),
                   oracle::reference_synthesize_netlist(b, input),
                   "8-thread compiled vs serial reference");
}

TEST(ParallelEvaluation, EnumerationAccountingInvariant) {
  // Shards prune against different bound fronts, so the evaluated/pruned
  // split may shift with the thread count — but every enumerated
  // combination lands in exactly one bucket, so the sum may not, and the
  // fronts may not (checked above).
  const netlist::Module input = testutil::make_datapath8();
  long expected_sum = -1;
  for (int threads : {1, 2, 8}) {
    dtas::Synthesizer synth(cells::lsi_library(), sweep_options(threads));
    ASSERT_FALSE(synth.synthesize_netlist(input).empty());
    const dtas::SpaceStats& stats = synth.space().stats();
    const long sum =
        stats.combinations_evaluated + stats.combinations_pruned;
    if (expected_sum < 0) {
      expected_sum = sum;
    } else {
      EXPECT_EQ(sum, expected_sum) << "threads " << threads;
    }
  }
  EXPECT_GT(expected_sum, 0);
}

TEST(ParallelEvaluation, SerialAtOneThreadNeverCreatesAPool) {
  dtas::SpaceOptions opt = sweep_options(1);
  dtas::Synthesizer synth(cells::lsi_library(), opt);
  synth.synthesize_netlist(testutil::make_datapath8());
  EXPECT_EQ(synth.space().stats().parallel_odometers, 0);
  EXPECT_EQ(synth.space().stats().odometer_shards, 0);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnceAcrossReuse) {
  base::ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3);
  for (int round = 0; round < 3; ++round) {
    const int n = 100 + round;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.run(n, [&](int task) { hits[task].fetch_add(1); });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " task " << i;
    }
  }
  // Introspection: three rounds of 100/101/102 tasks ran to completion.
  EXPECT_EQ(pool.runs(), 3);
  EXPECT_EQ(pool.tasks_executed(), 100 + 101 + 102);
  EXPECT_EQ(pool.peak_queue_depth(), 102);
  // Degenerate cases: no tasks, and a pool with no workers (caller-only).
  pool.run(0, [&](int) { FAIL() << "no task should run"; });
  EXPECT_EQ(pool.runs(), 3);  // an empty run is not a round
  base::ThreadPool empty(0);
  std::atomic<int> count{0};
  empty.run(7, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 7);
  EXPECT_EQ(empty.runs(), 1);
  EXPECT_EQ(empty.tasks_executed(), 7);
  EXPECT_EQ(empty.peak_queue_depth(), 7);
}

TEST(ThreadPool, SlotIdsStayInRangeAndExceptionsPropagate) {
  base::ThreadPool pool(2);
  // Slots identify the executing thread: 0 = caller, 1..workers().
  std::atomic<bool> slot_out_of_range{false};
  pool.run(64, [&](int, int slot) {
    if (slot < 0 || slot > 2) slot_out_of_range.store(true);
  });
  EXPECT_FALSE(slot_out_of_range.load());
  // An exception from one task is rethrown from run() after every task
  // has finished, and the pool stays usable afterwards.
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(10,
                        [&](int task) {
                          ran.fetch_add(1);
                          if (task == 3) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 10);
  std::atomic<int> after{0};
  pool.run(5, [&](int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 5);
}

TEST(ThreadPool, NestedRunOnSamePoolThrowsAndPoolStaysUsable) {
  // A same-pool nested fork-join could deadlock (the outer batch keeps
  // every worker busy), so the contract (thread_pool.h) is that it throws
  // instead: each nested call fails without running anything, the outer
  // batch drains and rethrows, and the pool keeps fork-joining normally.
  base::ThreadPool pool(2);
  std::atomic<int> outer_ran{0};
  std::atomic<int> inner_ran{0};
  const int kOuter = 8;  // > workers+1: every thread carries outer tasks
  EXPECT_THROW(pool.run(kOuter,
                        [&](int) {
                          outer_ran.fetch_add(1);
                          pool.run(13, [&](int) { inner_ran.fetch_add(1); });
                        }),
               Error);
  EXPECT_EQ(outer_ran.load(), kOuter);
  EXPECT_EQ(inner_ran.load(), 0);
  std::atomic<int> after{0};
  pool.run(5, [&](int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 5);
}

TEST(ThreadPool, CrossPoolNestingParks) {
  // A task on pool A doing a fork-join on pool B gets B's real
  // parallelism, and both pools stay usable afterwards (one outer task:
  // run() is single-entry per pool, so only one task may drive `other`
  // at a time).
  base::ThreadPool pool(2);
  base::ThreadPool other(2);
  std::atomic<int> cross{0};
  pool.run(1, [&](int) {
    other.run(10, [&](int) { cross.fetch_add(1); });
  });
  EXPECT_EQ(cross.load(), 10);
  std::atomic<int> check{0};
  pool.run(4, [&](int) { check.fetch_add(1); });
  other.run(4, [&](int) { check.fetch_add(1); });
  EXPECT_EQ(check.load(), 8);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BRIDGE_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define BRIDGE_TEST_UNDER_SANITIZER 1
#endif
#endif

/// Death-test child: under an address-space limit that fits a few worker
/// stacks but not thousands, thread creation fails partway. Exits 0 when
/// the pool rethrows std::system_error; before the fix the unwind
/// destroyed joinable std::threads and the process aborted.
[[noreturn]] void construct_pool_under_address_limit() {
  std::size_t pages = 0;  // virtual memory in use, from /proc
  std::ifstream("/proc/self/statm") >> pages;
  if (pages == 0) std::_Exit(2);
  const rlim_t cap = pages * 4096 + (64u << 20);
  const rlimit limit{cap, cap};
  if (setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(3);
  try {
    base::ThreadPool pool(4096);
  } catch (const std::system_error&) {
    std::_Exit(0);
  }
  std::_Exit(4);  // every thread started: the limit did not bind
}

TEST(ThreadPoolDeathTest, FailedThreadCreationJoinsStartedWorkersAndThrows) {
#ifdef BRIDGE_TEST_UNDER_SANITIZER
  GTEST_SKIP() << "sanitizer runtimes reserve address space RLIMIT_AS "
                  "cannot accommodate";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(construct_pool_under_address_limit(),
              ::testing::ExitedWithCode(0), "");
#endif
}

}  // namespace
}  // namespace bridge
