// Cycle-memo tests: the measurement half of the planner.
//
// The contracts pinned here are the ones planning leans on: the memo keeps
// only simulator cycles, the first value recorded for a shape wins, the
// epoch advances exactly once per distinct shape (that is what makes the
// cache re-derive a plan memoized cold), equivalent shapes share one
// entry, concurrent recorders and planners only ever see exact values, and
// the engine memoizes only runs on the machine the planner plans for.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "kernels/registry.h"
#include "runtime/batch_engine.h"
#include "runtime/history.h"
#include "runtime/orchestration_cache.h"
#include "runtime/planner.h"

using namespace subword;
using runtime::BatchEngine;
using runtime::HistoryKey;
using runtime::HistoryTable;
using runtime::KernelJob;
using runtime::ScoreSource;

namespace {

HistoryKey shape_key(const std::string& kernel, int repeats, bool use_spu,
                     const core::CrossbarConfig& cfg,
                     kernels::ExecBackend backend =
                         kernels::ExecBackend::kSimulator) {
  return HistoryKey::from_shape(kernel, repeats, use_spu,
                                kernels::SpuMode::Auto, cfg, backend);
}

KernelJob auto_job(const std::string& name, int repeats) {
  KernelJob j;
  j.kernel = name;
  j.repeats = repeats;
  j.use_spu = true;
  j.mode = kernels::SpuMode::Auto;
  j.cfg = core::kConfigA;
  return j;
}

}  // namespace

// -- Write-once semantics -----------------------------------------------------

TEST(History, LookupOfUnknownKeyIsEmpty) {
  HistoryTable t;
  EXPECT_FALSE(t.lookup(shape_key("FIR12", 1, true, core::kConfigA)));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.epoch(), 0u);
}

TEST(History, FirstValueWinsAndOnlyInsertsAdvanceTheEpoch) {
  HistoryTable t;
  const HistoryKey a = shape_key("DCT", 2, true, core::kConfigD);
  const HistoryKey b = shape_key("DCT", 2, false, core::kConfigA);
  t.record(a, 1234.0);
  EXPECT_EQ(t.epoch(), 1u);
  t.record(a, 9999.0);  // a second value for a memoized shape is ignored
  t.record(a, 1234.0);
  EXPECT_EQ(t.epoch(), 1u) << "re-recording a shape must not replan";
  t.record(b, 50.0);
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.lookup(a), 1234u);
  EXPECT_EQ(t.lookup(b), 50u);
}

TEST(History, NativeRecordsAreIgnored) {
  // A native run measures wall-clock time: neither exact nor cycles.
  HistoryTable t;
  const HistoryKey native = shape_key("IIR", 4, true, core::kConfigA,
                                      kernels::ExecBackend::kNativeSwar);
  t.record(native, 7.0);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.epoch(), 0u);
  EXPECT_FALSE(t.lookup(native));
}

TEST(History, BaselineShapesNormalizeToOneKey) {
  // from_shape zeroes mode and crossbar identity for baseline executions —
  // a baseline run is the same measurement no matter which SPU knobs the
  // job happened to carry.
  const auto a = HistoryKey::from_shape("FIR22", 8, /*use_spu=*/false,
                                        kernels::SpuMode::Auto, core::kConfigA,
                                        kernels::ExecBackend::kSimulator);
  const auto b = HistoryKey::from_shape("FIR22", 8, /*use_spu=*/false,
                                        kernels::SpuMode::Manual,
                                        core::kConfigD,
                                        kernels::ExecBackend::kSimulator);
  EXPECT_EQ(a, b);

  HistoryTable t;
  t.record(a, 50.0);
  t.record(b, 50.0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.epoch(), 1u);
}

TEST(History, ClearDropsEntriesAndAdvancesTheEpoch) {
  HistoryTable t;
  const HistoryKey key = shape_key("FIR12", 2, true, core::kConfigB);
  t.record(key, 10.0);
  const uint64_t epoch_before = t.epoch();
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.lookup(key));
  EXPECT_GT(t.epoch(), epoch_before)
      << "cached plans computed on the dropped entries must be recomputed";
}

// -- Concurrency --------------------------------------------------------------

TEST(History, ConcurrentRecordersAndPlannersSeeExactValues) {
  // Several writers record the same simulator shapes (and the native twin
  // of each, which must be dropped) while readers look them up and a
  // planner scores against the table. Every value anyone observes must be
  // the shape's one exact value, and the epoch must advance exactly once
  // per distinct shape however many threads raced to insert it.
  constexpr int kWriters = 4;
  constexpr int kRounds = 200;
  const std::string kernel = "FIR22";

  struct Shape {
    HistoryKey key;
    uint64_t cycles;
  };
  std::vector<Shape> shapes;
  for (const int repeats : {1, 2}) {
    shapes.push_back(
        {shape_key(kernel, repeats, false, core::kConfigA), 10000u});
    uint64_t cycles = 9000;
    for (const auto& cfg : core::kAllConfigs) {
      shapes.push_back({shape_key(kernel, repeats, true, cfg), cycles});
      cycles -= 100;
    }
  }

  HistoryTable t;
  const auto k = kernels::make_kernel(kernel);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // One last pass after the writers finish, so every shape is seen.
      for (bool last = false; !last;) {
        last = stop.load(std::memory_order_relaxed);
        for (const auto& s : shapes) {
          const auto got = t.lookup(s.key);
          if (!got) continue;
          hits.fetch_add(1, std::memory_order_relaxed);
          ASSERT_EQ(*got, s.cycles);
        }
      }
    });
  }
  readers.emplace_back([&] {
    runtime::PlanOptions po;
    po.allow_manual = false;
    po.history = &t;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto plan = runtime::plan_kernel(*k, 1, po);
      for (const auto& c : plan.summary.candidates) {
        if (!c.measured_cycles) continue;
        const HistoryKey key = shape_key(kernel, 1, c.use_spu, c.cfg);
        for (const auto& s : shapes) {
          if (s.key == key) {
            ASSERT_EQ(*c.measured_cycles, s.cycles);
          }
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        for (size_t s = 0; s < shapes.size(); ++s) {
          const auto& shape = shapes[(s + static_cast<size_t>(w)) %
                                     shapes.size()];
          t.record(shape.key, static_cast<double>(shape.cycles));
          HistoryKey native = shape.key;
          native.backend = kernels::ExecBackend::kNativeSwar;
          t.record(native, 1.0);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(t.size(), shapes.size()) << "native records must be dropped";
  EXPECT_EQ(t.epoch(), shapes.size()) << "one epoch advance per shape";
  for (const auto& s : shapes) EXPECT_EQ(t.lookup(s.key), s.cycles);

  // With the whole auto field memoized, the decision is measured: auto/D
  // saves the most cycles (10000 - 8700).
  runtime::PlanOptions po;
  po.allow_manual = false;
  po.history = &t;
  const auto plan = runtime::plan_kernel(*k, 1, po);
  EXPECT_EQ(plan.summary.score_source, ScoreSource::kMeasured);
  EXPECT_EQ(plan.summary.choice_label(), "auto/D");
  EXPECT_EQ(plan.summary.measured_cycles, 8700u);
}

// -- Engine integration -------------------------------------------------------

TEST(HistoryEngine, FixedConfigJobsFoldIntoExactlyOneEntry) {
  BatchEngine engine({.workers = 4, .cache = nullptr});
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back(auto_job("FIR12", 1));
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), 12u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.error;

  const auto& hist = engine.cache().history();
  EXPECT_EQ(hist.size(), 1u) << "identical shapes share one memo entry";
  EXPECT_EQ(hist.epoch(), 1u);
  ASSERT_TRUE(results[0].run.stats.has_cycles);
  EXPECT_EQ(hist.lookup(shape_key("FIR12", 1, true, core::kConfigA)),
            results[0].run.stats.cycles);
  EXPECT_EQ(engine.stats().cache.history_entries, 1u);
}

TEST(HistoryEngine, OnlyDefaultMachineSimulatorRunsAreMemoized) {
  BatchEngine engine({.workers = 1, .cache = nullptr});
  const auto& hist = engine.cache().history();
  const auto run = [&](KernelJob job) {
    const auto r = engine.submit(std::move(job)).get();
    ASSERT_TRUE(r.ok) << r.error;
  };

  KernelJob native = auto_job("FIR12", 1);
  native.backend = kernels::ExecBackend::kNativeSwar;
  run(native);
  EXPECT_EQ(hist.size(), 0u) << "native runs carry no cycles";

  KernelJob slow_pipe = auto_job("FIR12", 1);
  slow_pipe.pc.mispredict_penalty = 40;
  run(slow_pipe);
  KernelJob few_contexts = auto_job("FIR12", 1);
  few_contexts.opts.max_contexts = 1;
  run(few_contexts);
  KernelJob base_extra_stage = auto_job("FIR12", 1);
  base_extra_stage.use_spu = false;
  base_extra_stage.pc.extra_spu_stage = true;
  run(base_extra_stage);
  EXPECT_EQ(hist.size(), 0u)
      << "runs on a machine the planner does not plan for are not exact "
         "costs of the planned shape";

  // SPU preparations force the extra stage on, so asking for it is the
  // default machine.
  KernelJob spu_extra_stage = auto_job("FIR12", 1);
  spu_extra_stage.pc.extra_spu_stage = true;
  run(spu_extra_stage);
  EXPECT_EQ(hist.size(), 1u);
}
