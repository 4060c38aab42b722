// Tests for the optimization pool mapping, the Autotuner front-ends, the
// feature-guided classifier wiring and the hyperparameter grid search.
#include <gtest/gtest.h>

#include "gen/generators.hpp"
#include "gen/suite.hpp"
#include "tuner/feature_classifier.hpp"
#include "tuner/grid_search.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {
namespace {

FeatureVector features_of(const CsrMatrix& m) { return extract_features(m); }

TEST(OptimizationPool, TargetClassesMatchTableII) {
  EXPECT_EQ(target_class(Optimization::kDeltaVec), Bottleneck::kMB);
  EXPECT_EQ(target_class(Optimization::kPrefetch), Bottleneck::kML);
  EXPECT_EQ(target_class(Optimization::kDecompose), Bottleneck::kIMB);
  EXPECT_EQ(target_class(Optimization::kAutoSched), Bottleneck::kIMB);
  EXPECT_EQ(target_class(Optimization::kUnrollVec), Bottleneck::kCMP);
}

TEST(OptimizationPool, Names) {
  EXPECT_EQ(to_string(Optimization::kDeltaVec), "delta+vec");
  EXPECT_EQ(to_string(std::vector<Optimization>{}), "(none)");
  EXPECT_EQ(to_string(std::vector<Optimization>{Optimization::kPrefetch,
                                                Optimization::kUnrollVec}),
            "prefetch+unroll+vec");
}

TEST(OptimizationPool, SweepSetCounts) {
  EXPECT_EQ(single_optimization_sets().size(), 5u);   // paper: "total of 5"
  EXPECT_EQ(combined_optimization_sets().size(), 15u);  // paper: "total of 15"
}

TEST(SelectOptimizations, MapsEachClass) {
  const CsrMatrix regular = gen::banded(2000, 50, 8, 131);
  const auto fv = features_of(regular);
  EXPECT_EQ(select_optimizations({Bottleneck::kMB}, fv),
            (std::vector<Optimization>{Optimization::kDeltaVec}));
  EXPECT_EQ(select_optimizations({Bottleneck::kML}, fv),
            (std::vector<Optimization>{Optimization::kPrefetch}));
  EXPECT_EQ(select_optimizations({Bottleneck::kCMP}, fv),
            (std::vector<Optimization>{Optimization::kUnrollVec}));
  EXPECT_TRUE(select_optimizations({}, fv).empty());
}

TEST(SelectOptimizations, ImbSubSelectionUsesRowSkew) {
  // Extremely uneven rows (circuit-style) -> decomposition.
  const auto skew_fv = features_of(gen::circuit_like(30000, 3, 4, 25000, 132));
  EXPECT_EQ(select_optimizations({Bottleneck::kIMB}, skew_fv),
            (std::vector<Optimization>{Optimization::kDecompose}));
  // Even rows -> auto scheduling.
  const auto flat_fv = features_of(gen::banded(3000, 60, 8, 133));
  EXPECT_EQ(select_optimizations({Bottleneck::kIMB}, flat_fv),
            (std::vector<Optimization>{Optimization::kAutoSched}));
  // Power-law hubs (moderately uneven) -> auto scheduling, as the paper
  // does for flickr.
  const auto hub_fv = features_of(gen::powerlaw(20000, 1.8, 2000, 134));
  EXPECT_EQ(select_optimizations({Bottleneck::kIMB}, hub_fv),
            (std::vector<Optimization>{Optimization::kAutoSched}));
}

TEST(SelectHostOptimizations, SplitsUnevenRowsUnlessDeltaWasSelected) {
  using O = Optimization;
  const auto uneven = features_of(gen::circuit_like(30000, 3, 4, 25000, 132));
  const auto even = features_of(gen::banded(3000, 60, 8, 133));
  ASSERT_TRUE(has_uneven_rows(uneven));
  ASSERT_FALSE(has_uneven_rows(even));
  const BottleneckSet cmp{Bottleneck::kCMP};
  const BottleneckSet imb_cmp{Bottleneck::kIMB, Bottleneck::kCMP};
  const BottleneckSet mb_cmp{Bottleneck::kMB, Bottleneck::kCMP};
  // Uneven rows are split whatever the IMB class reads ...
  EXPECT_EQ(select_host_optimizations(cmp, uneven),
            (std::vector<O>{O::kDecompose, O::kUnrollVec}));
  EXPECT_EQ(select_host_optimizations(imb_cmp, uneven),
            (std::vector<O>{O::kDecompose, O::kUnrollVec}));
  // ... unless MB selected delta, which keeps precedence.
  EXPECT_EQ(select_host_optimizations(mb_cmp, uneven),
            (std::vector<O>{O::kDeltaVec, O::kUnrollVec}));
  // Even rows keep the paper's mapping: IMB still picks dynamic scheduling.
  EXPECT_EQ(select_host_optimizations(cmp, even), (std::vector<O>{O::kUnrollVec}));
  EXPECT_EQ(select_host_optimizations(imb_cmp, even),
            (std::vector<O>{O::kAutoSched, O::kUnrollVec}));
  EXPECT_EQ(select_host_optimizations(mb_cmp, even),
            (std::vector<O>{O::kDeltaVec, O::kUnrollVec}));
  // The simulated mapping is unchanged: no split without the IMB class.
  EXPECT_EQ(select_optimizations(cmp, uneven), (std::vector<O>{O::kUnrollVec}));
  // A stricter policy leaves the same matrix unsplit.
  EXPECT_EQ(select_host_optimizations(cmp, uneven, ImbPolicy{.uneven_row_ratio = 1e9}),
            (std::vector<O>{O::kUnrollVec}));
}

TEST(SelectOptimizations, JointApplication) {
  const auto fv = features_of(gen::random_uniform(1000, 10, 134));
  const auto ops = select_optimizations({Bottleneck::kML, Bottleneck::kIMB}, fv);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], Optimization::kPrefetch);
}

TEST(ConfigFor, ComposesFlags) {
  const auto cfg = config_for({Optimization::kDeltaVec, Optimization::kPrefetch});
  EXPECT_TRUE(cfg.delta);
  EXPECT_TRUE(cfg.vectorized);
  EXPECT_TRUE(cfg.prefetch);
  EXPECT_FALSE(cfg.decomposed);

  const auto imb = config_for({Optimization::kAutoSched});
  EXPECT_EQ(imb.schedule, sim::Schedule::kDynamicChunks);

  const auto cmp = config_for({Optimization::kUnrollVec});
  EXPECT_TRUE(cmp.unrolled);
  EXPECT_TRUE(cmp.vectorized);
}

TEST(LabelEncoding, DummyClassForEmptySets) {
  EXPECT_EQ(encode_labels(BottleneckSet{}), 1u << kNumBottlenecks);
  const BottleneckSet s{Bottleneck::kML};
  EXPECT_EQ(encode_labels(s), s.mask());
  EXPECT_EQ(decode_labels(encode_labels(s)), s);
  EXPECT_TRUE(decode_labels(encode_labels(BottleneckSet{})).empty());
}

class AutotunerFixture : public ::testing::Test {
 protected:
  static const Autotuner& tuner() {
    static const Autotuner kTuner{knc()};
    return kTuner;
  }
  static const Autotuner::Evaluation& scattered_eval() {
    static const auto kEval =
        tuner().evaluate("scattered", gen::random_uniform(20000, 16, 135));
    return kEval;
  }
  static const Autotuner::Evaluation& skewed_eval() {
    static const auto kEval =
        tuner().evaluate("skewed", gen::circuit_like(40000, 3, 6, 30000, 136));
    return kEval;
  }
};

TEST_F(AutotunerFixture, EvaluationCoversAllCombos) {
  const auto& e = scattered_eval();
  EXPECT_EQ(e.combo_gflops.size(), combined_optimization_sets().size());
  for (double g : e.combo_gflops) EXPECT_GT(g, 0.0);
  EXPECT_GT(e.nnz, 0);
  // Baseline rate is cached under the default config and equals mask 0.
  EXPECT_NEAR(e.gflops_for(sim::KernelConfig{}), e.class_mask_gflops[0], 1e-12);
  EXPECT_NEAR(e.class_mask_gflops[0], e.bounds.p_csr, 1e-9);
}

TEST_F(AutotunerFixture, EvaluationRejectsUnknownConfig) {
  sim::KernelConfig odd;
  odd.x_access = sim::XAccess::kRegularized;
  odd.prefetch = true;
  EXPECT_THROW((void)scattered_eval().gflops_for(odd), std::out_of_range);
}

TEST_F(AutotunerFixture, ProfilePlanDetectsMlOnScattered) {
  const auto plan = tuner().plan(scattered_eval());
  EXPECT_TRUE(plan.classes.contains(Bottleneck::kML));
  EXPECT_GT(plan.gflops, scattered_eval().bounds.p_csr);
  EXPECT_GT(plan.t_pre_seconds, 0.0);
  EXPECT_EQ(plan.strategy, "profile");
}

TEST_F(AutotunerFixture, ProfilePlanDetectsImbOnSkewed) {
  const auto plan = tuner().plan(skewed_eval());
  EXPECT_TRUE(plan.classes.contains(Bottleneck::kIMB));
  EXPECT_NE(std::find(plan.optimizations.begin(), plan.optimizations.end(),
                      Optimization::kDecompose),
            plan.optimizations.end());
}

TEST_F(AutotunerFixture, OracleDominatesEveryStrategy) {
  for (const auto* e : {&scattered_eval(), &skewed_eval()}) {
    const auto oracle = tuner().plan(*e, {.policy = TunePolicy::kOracle});
    EXPECT_GE(oracle.gflops, tuner().plan(*e).gflops * 0.999);
    EXPECT_GE(oracle.gflops, e->bounds.p_csr * 0.999);
    EXPECT_GE(oracle.gflops,
              tuner().plan(*e, {.policy = TunePolicy::kTrivialSingle}).gflops * 0.999);
    EXPECT_DOUBLE_EQ(oracle.t_pre_seconds, 0.0);
  }
}

TEST_F(AutotunerFixture, TrivialCombinedMatchesOraclePerformance) {
  // Same candidate set; only the overhead differs.
  const auto trivial = tuner().plan(scattered_eval(), {.policy = TunePolicy::kTrivialCombined});
  const auto oracle = tuner().plan(scattered_eval(), {.policy = TunePolicy::kOracle});
  EXPECT_DOUBLE_EQ(trivial.gflops, oracle.gflops);
  EXPECT_GT(trivial.t_pre_seconds, 0.0);
}

TEST_F(AutotunerFixture, OverheadOrdering) {
  // feature < profile < trivial-single < trivial-combined (paper Table V).
  const auto& e = scattered_eval();
  const auto samples = std::vector<TrainingSample>{
      tuner().label(e), tuner().label(skewed_eval()),
      tuner().label(tuner().evaluate("fem", gen::fem_like(8000, 8, 8, 800, 137))),
      tuner().label(tuner().evaluate("band", gen::banded(20000, 200, 8, 138)))};
  const auto fc = FeatureClassifier::train(samples);
  const double t_feat =
      tuner().plan(e, {.policy = TunePolicy::kFeature, .classifier = &fc}).t_pre_seconds;
  const double t_prof = tuner().plan(e).t_pre_seconds;
  const double t_single = tuner().plan(e, {.policy = TunePolicy::kTrivialSingle}).t_pre_seconds;
  const double t_comb = tuner().plan(e, {.policy = TunePolicy::kTrivialCombined}).t_pre_seconds;
  EXPECT_LT(t_feat, t_prof);
  EXPECT_LT(t_prof, t_single);
  EXPECT_LT(t_single, t_comb);
}

TEST_F(AutotunerFixture, TuneConvenienceWrappers) {
  const CsrMatrix m = gen::random_uniform(8000, 12, 139);
  const auto plan = tuner().tune(m);
  EXPECT_GT(plan.gflops, 0.0);
  EXPECT_GT(plan.t_spmv_seconds, 0.0);
}

TEST_F(AutotunerFixture, LabelUsesProfileClassifier) {
  const auto sample = tuner().label(scattered_eval());
  EXPECT_EQ(sample.labels.mask(),
            classify_profile(scattered_eval().bounds, tuner().thresholds()).mask());
}

TEST(FeatureClassifierEndToEnd, LearnsArchetypeLabels) {
  // Train on a small corpus of archetypes and verify the tree recovers the
  // dominant class of fresh instances from the same families.
  const Autotuner tuner{knc()};
  std::vector<TrainingSample> samples;
  for (std::uint64_t s = 0; s < 6; ++s) {
    samples.push_back(tuner.label(gen::random_uniform(
        static_cast<index_t>(8000 + 1000 * s), 16, 140 + s)));
    samples.push_back(tuner.label(gen::circuit_like(
        static_cast<index_t>(20000 + 2000 * s), 3, 5, 15000, 150 + s)));
    samples.push_back(
        tuner.label(gen::banded(static_cast<index_t>(20000 + 3000 * s), 300, 8, 160 + s)));
  }
  const auto fc = FeatureClassifier::train(samples);

  const auto scattered = tuner.label(gen::random_uniform(9500, 16, 170));
  const auto predicted = fc.classify(scattered.features);
  EXPECT_TRUE(predicted.contains(Bottleneck::kML))
      << "predicted " << to_string(predicted) << " truth " << to_string(scattered.labels);
}

TEST(FeatureClassifierCv, ScoresWithinBounds) {
  const Autotuner tuner{knc()};
  std::vector<TrainingSample> samples;
  for (std::uint64_t s = 0; s < 5; ++s) {
    samples.push_back(tuner.label(gen::random_uniform(6000, 14, 180 + s)));
    samples.push_back(tuner.label(gen::banded(15000, 250, 8, 190 + s)));
  }
  FeatureClassifier::Config cfg;
  const auto scores = FeatureClassifier::cross_validate(samples, cfg);
  EXPECT_GE(scores.exact_match, 0.0);
  EXPECT_LE(scores.exact_match, 1.0);
  EXPECT_GE(scores.partial_match, scores.exact_match);
}

TEST(GridSearch, FindsGainMaximizingCell) {
  const Autotuner tuner{knc()};
  std::vector<Autotuner::Evaluation> evals;
  evals.push_back(tuner.evaluate("scattered", gen::random_uniform(12000, 16, 200)));
  evals.push_back(tuner.evaluate("skewed", gen::circuit_like(25000, 3, 5, 20000, 201)));
  evals.push_back(tuner.evaluate("regular", gen::banded(30000, 300, 8, 202)));

  const std::vector<double> grid{1.1, 1.25, 1.5, 2.0};
  const auto result = tune_thresholds(evals, tuner, grid, grid);
  EXPECT_EQ(result.cells.size(), 16u);
  // The best cell's gain matches a direct evaluation and dominates others.
  EXPECT_NEAR(result.best_gain, average_gain(evals, tuner, result.best), 1e-12);
  for (const auto& c : result.cells) EXPECT_LE(c.avg_gain, result.best_gain + 1e-12);
  // Optimizing matrices with clear headroom must yield net gain.
  EXPECT_GT(result.best_gain, 1.0);
}

TEST(GridSearch, DefaultGridIsDense) {
  const auto grid = default_threshold_grid();
  EXPECT_GE(grid.size(), 15u);
  EXPECT_LT(grid.front(), 1.1);
  EXPECT_GE(grid.back(), 1.95);
}

}  // namespace
}  // namespace sparta
