// Tests for the sparta::obs telemetry subsystem: per-thread counter/gauge/
// histogram merging, the disabled-mode zero-allocation guarantee, TuneTrace
// JSON-Lines round-tripping, and the unified tune()/plan() surface: policy
// selection, tune() against evaluate() then plan(), and the traces it
// collects on request.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "machine/machine_spec.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "tuner/feature_classifier.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {
namespace {

/// Save/restore the process-wide telemetry toggle around each test.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : saved_(obs::enabled()) { obs::set_enabled(on); }
  ~EnabledGuard() { obs::set_enabled(saved_); }
  EnabledGuard(const EnabledGuard&) = delete;
  EnabledGuard& operator=(const EnabledGuard&) = delete;

 private:
  bool saved_;
};

const obs::MetricSample* find(const std::vector<obs::MetricSample>& samples,
                              std::string_view name) {
  for (const auto& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(Registry, CounterMergesAcrossOmpThreads) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const EnabledGuard guard{true};
  obs::Registry reg;
  const obs::Counter c = reg.counter("test.adds");
  constexpr int kAdds = 100000;
#pragma omp parallel
  {
#pragma omp for
    for (int i = 0; i < kAdds; ++i) c.add();
  }
  const auto samples = reg.snapshot();
  const auto* s = find(samples, "test.adds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, obs::Kind::kCounter);
  // Plain per-thread slots: no update may be lost as long as thread ids
  // stay within the slot mask (they do — slots cover omp_get_max_threads()).
  EXPECT_DOUBLE_EQ(s->value, static_cast<double>(kAdds));
  EXPECT_GT(reg.slot_bytes(), 0u);
}

TEST(Registry, CounterWeightedAddAndReset) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const EnabledGuard guard{true};
  obs::Registry reg;
  const obs::Counter c = reg.counter("test.bytes");
  c.add(128.0);
  c.add(64.0);
  EXPECT_DOUBLE_EQ(find(reg.snapshot(), "test.bytes")->value, 192.0);
  reg.reset();
  EXPECT_DOUBLE_EQ(find(reg.snapshot(), "test.bytes")->value, 0.0);
  c.add(1.0);  // handles stay valid across reset()
  EXPECT_DOUBLE_EQ(find(reg.snapshot(), "test.bytes")->value, 1.0);
}

TEST(Registry, GaugeLastWriterWins) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const EnabledGuard guard{true};
  obs::Registry reg;
  const obs::Gauge g = reg.gauge("test.gauge");
  g.set(3.0);
  g.set(7.5);
  const auto samples = reg.snapshot();
  const auto* s = find(samples, "test.gauge");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, obs::Kind::kGauge);
  EXPECT_DOUBLE_EQ(s->value, 7.5);
}

TEST(Registry, HistogramStatsAndQuantiles) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const EnabledGuard guard{true};
  obs::Registry reg;
  const obs::Histogram h = reg.histogram("test.hist");
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.record(v);
  const auto samples = reg.snapshot();
  const auto* s = find(samples, "test.hist");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, obs::Kind::kHistogram);
  EXPECT_DOUBLE_EQ(s->hist.count, 4.0);
  EXPECT_DOUBLE_EQ(s->hist.sum, 15.0);
  EXPECT_DOUBLE_EQ(s->hist.min, 1.0);
  EXPECT_DOUBLE_EQ(s->hist.max, 8.0);
  EXPECT_DOUBLE_EQ(s->hist.mean(), 3.75);
  // Log-bucket quantiles are exponent-resolution estimates, clamped to the
  // observed range.
  EXPECT_GE(s->hist.quantile(0.5), s->hist.min);
  EXPECT_LE(s->hist.quantile(0.5), s->hist.max);
  EXPECT_DOUBLE_EQ(s->hist.quantile(1.0), s->hist.max);
}

TEST(Registry, HistogramMergesAcrossOmpThreads) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const EnabledGuard guard{true};
  obs::Registry reg;
  const obs::Histogram h = reg.histogram("test.omp_hist");
  constexpr int kRecords = 10000;
#pragma omp parallel
  {
#pragma omp for
    for (int i = 0; i < kRecords; ++i) h.record(1.0);
  }
  const auto samples = reg.snapshot();
  const auto* s = find(samples, "test.omp_hist");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->hist.count, static_cast<double>(kRecords));
  EXPECT_DOUBLE_EQ(s->hist.sum, static_cast<double>(kRecords));
}

TEST(Registry, RejectsKindMismatch) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const EnabledGuard guard{true};
  obs::Registry reg;
  (void)reg.counter("test.metric");
  EXPECT_THROW((void)reg.gauge("test.metric"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("test.metric"), std::invalid_argument);
  EXPECT_NO_THROW((void)reg.counter("test.metric"));  // same kind: find
}

TEST(Registry, DisabledHandlesAreInertAndAllocationFree) {
  const EnabledGuard guard{false};
  obs::Registry reg;
  const obs::Counter c = reg.counter("dead.counter");
  const obs::Gauge g = reg.gauge("dead.gauge");
  const obs::Histogram h = reg.histogram("dead.hist");
  // The zero-allocation guarantee: nothing was registered or allocated.
  EXPECT_EQ(reg.slot_bytes(), 0u);
  EXPECT_TRUE(reg.snapshot().empty());
  // Record calls are no-ops, even after telemetry is re-enabled — handles
  // created while disabled are permanently inert.
  c.add(5.0);
  g.set(1.0);
  h.record(1.0);
  obs::set_enabled(true);
  c.add(5.0);
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_EQ(reg.slot_bytes(), 0u);
}

TEST(Registry, CompiledOutModeIsAlwaysDisabled) {
  if constexpr (obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled in";
  obs::set_enabled(true);
  EXPECT_FALSE(obs::enabled());
  obs::Registry& reg = obs::Registry::global();
  reg.counter("x").add();
  EXPECT_TRUE(reg.snapshot().empty());
  EXPECT_EQ(reg.slot_bytes(), 0u);
}

TEST(Exporters, WriteJsonlEmitsOneObjectPerMetric) {
  if constexpr (!obs::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const EnabledGuard guard{true};
  obs::Registry reg;
  reg.counter("a.count").add(2.0);
  reg.histogram("b.hist").record(3.0);
  std::ostringstream os;
  obs::write_jsonl(os, reg.snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("{\"metric\":\"a.count\",\"kind\":\"counter\",\"value\":2"),
            std::string::npos);
  EXPECT_NE(out.find("\"metric\":\"b.hist\""), std::string::npos);
  EXPECT_NE(out.find("\"buckets\":["), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);

  std::ostringstream table;
  obs::print_table(table, reg.snapshot());
  EXPECT_NE(table.str().find("a.count"), std::string::npos);
}

TEST(TuneTrace, JsonlRoundTripPreservesEveryField) {
  obs::TuneTrace t;
  t.matrix = "suite:\"quoted\\name\"";  // exercises string escaping
  t.strategy = "profile";
  t.nrows = 12345;
  t.nnz = 678901;
  t.features = {{"nnz_avg", 5.25}, {"bw_max", 0.875}};
  t.bounds = {{"P_CSR", 3.5}, {"P_MB/P_CSR", 1.25}};
  t.classes = {"MB", "IMB"};
  t.class_mask = 9;
  t.optimizations = {"delta+vec", "decompose"};
  t.config = "delta+decomposed";
  t.gflops = 4.75;
  t.t_spmv_seconds = 1.5e-4;
  t.t_pre_seconds = 2.5e-2;
  t.phases = {{"bounds", 120.5}, {"features", 80.25}, {"plan", 3.125}};
  t.extra = {{"t_vendor_seconds", 2.0e-4}};

  const std::string line = t.to_jsonl();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const obs::TuneTrace back = obs::TuneTrace::from_jsonl(line);
  EXPECT_EQ(back, t);

  // The derived accessors the offline analysis uses.
  EXPECT_DOUBLE_EQ(back.phase_micros("features"), 80.25);
  EXPECT_DOUBLE_EQ(back.phase_micros("absent"), 0.0);
  EXPECT_DOUBLE_EQ(back.total_phase_micros(), 120.5 + 80.25 + 3.125);
  EXPECT_DOUBLE_EQ(back.value_or_zero("t_vendor_seconds"), 2.0e-4);
  EXPECT_DOUBLE_EQ(back.value_or_zero("P_MB/P_CSR"), 1.25);
  EXPECT_DOUBLE_EQ(back.value_or_zero("nnz_avg"), 5.25);
  EXPECT_DOUBLE_EQ(back.value_or_zero("nope"), 0.0);

  EXPECT_THROW(obs::TuneTrace::from_jsonl("not json"), std::runtime_error);
}

TEST(TuneTrace, ScopedPhaseAppendsOnDestruction) {
  std::vector<obs::PhaseCost> phases;
  {
    const obs::ScopedPhase p{phases, "work"};
    EXPECT_TRUE(phases.empty());
  }
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].name, "work");
  EXPECT_GE(phases[0].micros, 0.0);
}

// --- Unified tune/plan API ---------------------------------------------------

class ApiEquivalence : public ::testing::Test {
 protected:
  static const Autotuner& tuner() {
    static const Autotuner kTuner{knc()};
    return kTuner;
  }
  static const Autotuner::Evaluation& eval() {
    static const auto kEval = tuner().evaluate("mix", gen::random_uniform(12000, 14, 231));
    return kEval;
  }
  static const FeatureClassifier& classifier() {
    static const auto kFc = [] {
      const std::vector<TrainingSample> samples{
          tuner().label(eval()),
          tuner().label(tuner().evaluate("band", gen::banded(8000, 120, 8, 232))),
          tuner().label(tuner().evaluate("skew", gen::circuit_like(9000, 3, 6, 7000, 233)))};
      return FeatureClassifier::train(samples);
    }();
    return kFc;
  }
  static void expect_same(const OptimizationPlan& a, const OptimizationPlan& b) {
    EXPECT_EQ(a.strategy, b.strategy);
    EXPECT_EQ(a.classes.mask(), b.classes.mask());
    EXPECT_EQ(a.optimizations, b.optimizations);
    EXPECT_EQ(a.config.describe(), b.config.describe());
    EXPECT_DOUBLE_EQ(a.gflops, b.gflops);
    EXPECT_DOUBLE_EQ(a.t_spmv_seconds, b.t_spmv_seconds);
    EXPECT_DOUBLE_EQ(a.t_pre_seconds, b.t_pre_seconds);
  }
};

TEST_F(ApiEquivalence, PolicySelectsStrategy) {
  EXPECT_EQ(tuner().plan(eval()).strategy, "profile");
  EXPECT_EQ(tuner()
                .plan(eval(), {.policy = TunePolicy::kFeature, .classifier = &classifier()})
                .strategy,
            "feature");
  EXPECT_EQ(tuner().plan(eval(), {.policy = TunePolicy::kOracle}).strategy, "oracle");
  EXPECT_EQ(tuner().plan(eval(), {.policy = TunePolicy::kTrivialSingle}).strategy,
            "trivial-single");
  EXPECT_EQ(tuner().plan(eval(), {.policy = TunePolicy::kTrivialCombined}).strategy,
            "trivial-combined");
}

TEST_F(ApiEquivalence, TuneMatchesEvaluateThenPlan) {
  const CsrMatrix m = gen::random_uniform(6000, 10, 234);
  expect_same(tuner().tune(m), tuner().plan(tuner().evaluate("", m)));
}

TEST_F(ApiEquivalence, FeaturePolicyRequiresClassifier) {
  EXPECT_THROW((void)tuner().plan(eval(), {.policy = TunePolicy::kFeature}),
               std::invalid_argument);
}

// --- Traces out of the tuner ------------------------------------------------

TEST_F(ApiEquivalence, PlanCollectsTraceOnRequest) {
  const auto plain = tuner().plan(eval(), {.collect_trace = false});
  EXPECT_EQ(plain.trace, nullptr);

  const auto traced = tuner().plan(eval(), {.policy = TunePolicy::kTrivialCombined,
                                            .name = "labelled",
                                            .collect_trace = true});
  ASSERT_NE(traced.trace, nullptr);
  const obs::TuneTrace& t = *traced.trace;
  EXPECT_EQ(t.matrix, "labelled");
  EXPECT_EQ(t.strategy, "trivial-combined");
  EXPECT_EQ(t.nrows, eval().nrows);
  EXPECT_EQ(t.nnz, eval().nnz);
  EXPECT_FALSE(t.features.empty());
  EXPECT_FALSE(t.bounds.empty());
  EXPECT_DOUBLE_EQ(t.gflops, traced.gflops);
  EXPECT_DOUBLE_EQ(t.t_pre_seconds, traced.t_pre_seconds);
  // The evaluation phases ride along, followed by the plan phase — enough to
  // re-derive the per-phase tuning cost offline.
  EXPECT_GT(t.phase_micros("plan"), 0.0);
  for (const char* phase : {"bounds", "features", "simulate"}) {
    EXPECT_GT(t.phase_micros(phase), 0.0) << phase;
  }
  // And it survives the JSONL round trip bit-for-bit.
  EXPECT_EQ(obs::TuneTrace::from_jsonl(t.to_jsonl()), t);
}

TEST_F(ApiEquivalence, TraceRecoversAmortizationInputs) {
  // The Table V re-derivation needs t_pre, t_spmv and a reference time; the
  // trace carries the first two and tools append the reference as an extra.
  const auto plan = tuner().plan(eval(), {.policy = TunePolicy::kTrivialSingle,
                                          .collect_trace = true});
  ASSERT_NE(plan.trace, nullptr);
  obs::TuneTrace t = *plan.trace;
  const double t_vendor = 1.25 * t.t_spmv_seconds;
  t.extra.emplace_back("t_vendor_seconds", t_vendor);
  const obs::TuneTrace back = obs::TuneTrace::from_jsonl(t.to_jsonl());
  const double denom = back.value_or_zero("t_vendor_seconds") - back.t_spmv_seconds;
  ASSERT_GT(denom, 0.0);
  const double n_iters_min = back.t_pre_seconds / denom;
  EXPECT_NEAR(n_iters_min, plan.t_pre_seconds / (t_vendor - plan.t_spmv_seconds), 1e-9);
}

}  // namespace
}  // namespace sparta
