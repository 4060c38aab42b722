// Tests for the structural scans (properties.hpp) and the Table I feature
// extraction, including the exact definitions of scatter, clustering and the
// naive miss estimate.
#include <gtest/gtest.h>

#include <omp.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "features/features.hpp"
#include "gen/generators.hpp"
#include "sparse/properties.hpp"

namespace sparta {
namespace {

CsrMatrix crafted() {
  // row 0: cols 0,1,2        (one group, bw 2)
  // row 1: cols 0, 50        (two groups, bw 50, one far gap)
  // row 2: empty
  // row 3: col 7             (singleton)
  CooMatrix coo{4, 64};
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(1, 50, 1.0);
  coo.add(3, 7, 1.0);
  return CsrMatrix::from_coo(coo);
}

TEST(RowScan, NnzPerRow) {
  const auto scan = scan_rows(crafted());
  EXPECT_EQ(scan.nnz, (std::vector<double>{3, 2, 0, 1}));
}

TEST(RowScan, BandwidthDefinition) {
  const auto scan = scan_rows(crafted());
  EXPECT_DOUBLE_EQ(scan.bandwidth[0], 2.0);
  EXPECT_DOUBLE_EQ(scan.bandwidth[1], 50.0);
  EXPECT_DOUBLE_EQ(scan.bandwidth[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.bandwidth[3], 0.0);  // single element: no distance
}

TEST(RowScan, ScatterIsNnzOverBandwidth) {
  const auto scan = scan_rows(crafted());
  EXPECT_DOUBLE_EQ(scan.scatter[0], 3.0 / 2.0);
  EXPECT_DOUBLE_EQ(scan.scatter[1], 2.0 / 50.0);
  EXPECT_DOUBLE_EQ(scan.scatter[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.scatter[3], 0.0);  // bw 0 guard
}

TEST(RowScan, ClusteringCountsGroups) {
  const auto scan = scan_rows(crafted());
  EXPECT_DOUBLE_EQ(scan.clustering[0], 1.0 / 3.0);  // one run of consecutive cols
  EXPECT_DOUBLE_EQ(scan.clustering[1], 2.0 / 2.0);  // two isolated elements
  EXPECT_DOUBLE_EQ(scan.clustering[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.clustering[3], 1.0 / 1.0);
}

TEST(RowScan, MissesCountFirstAccessAndFarGaps) {
  const auto scan = scan_rows(crafted(), /*values_per_line=*/8);
  EXPECT_DOUBLE_EQ(scan.misses[0], 1.0);  // compulsory only; gaps of 1
  EXPECT_DOUBLE_EQ(scan.misses[1], 2.0);  // compulsory + gap 50 > 8
  EXPECT_DOUBLE_EQ(scan.misses[2], 0.0);
  EXPECT_DOUBLE_EQ(scan.misses[3], 1.0);
}

TEST(RowScan, MissesRespectLineSize) {
  // Gap of 50 does not miss when 64 values fit per line.
  const auto scan = scan_rows(crafted(), /*values_per_line=*/64);
  EXPECT_DOUBLE_EQ(scan.misses[1], 1.0);
}

TEST(Properties, SymmetryDetection) {
  EXPECT_TRUE(is_symmetric(gen::stencil5(6, 6)));
  CooMatrix coo{2, 2};
  coo.add(0, 1, 1.0);
  EXPECT_FALSE(is_symmetric(CsrMatrix::from_coo(coo)));
}

TEST(Properties, SymmetryRequiresMatchingValues) {
  CooMatrix coo{2, 2};
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 2.0);
  EXPECT_FALSE(is_symmetric(CsrMatrix::from_coo(coo)));
  CooMatrix coo2{2, 2};
  coo2.add(0, 1, 1.0);
  coo2.add(1, 0, 1.0);
  EXPECT_TRUE(is_symmetric(CsrMatrix::from_coo(coo2)));
}

TEST(Properties, RectangularNeverSymmetric) {
  CooMatrix coo{2, 3};
  coo.add(0, 0, 1.0);
  EXPECT_FALSE(is_symmetric(CsrMatrix::from_coo(coo)));
}

TEST(Properties, EmptyRowCount) {
  EXPECT_EQ(count_empty_rows(crafted()), 1);
  EXPECT_EQ(count_empty_rows(gen::diagonal(5)), 0);
}

TEST(Properties, FullDiagonalDetection) {
  EXPECT_TRUE(has_full_diagonal(gen::stencil5(4, 4)));
  EXPECT_FALSE(has_full_diagonal(crafted()));
}

TEST(Features, DiagonalMatrix) {
  const CsrMatrix m = gen::diagonal(64);
  const auto fv = extract_features(m);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzMin], 1.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzMax], 1.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzAvg], 1.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kNnzSd], 0.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kBwMax], 0.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kDensity], 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(fv[Feature::kMissesAvg], 1.0);
}

TEST(Features, SizeFlagReflectsLlc) {
  const CsrMatrix m = gen::banded(1000, 20, 6, 51);
  FeatureExtractionConfig small_cfg;
  small_cfg.llc_bytes = 1024;  // smaller than the working set
  EXPECT_DOUBLE_EQ(extract_features(m, small_cfg)[Feature::kSize], 0.0);
  FeatureExtractionConfig big_cfg;
  big_cfg.llc_bytes = 1ull << 30;
  EXPECT_DOUBLE_EQ(extract_features(m, big_cfg)[Feature::kSize], 1.0);
}

TEST(Features, DenseRowMatrixHasHighNnzMax) {
  const CsrMatrix m = gen::circuit_like(2000, 3, 4, 1500, 52);
  const auto fv = extract_features(m);
  EXPECT_GT(fv[Feature::kNnzMax], 20.0 * fv[Feature::kNnzAvg]);
}

TEST(Features, PowerlawHasSkewedRows) {
  const CsrMatrix m = gen::powerlaw(3000, 1.7, 500, 53);
  const auto fv = extract_features(m);
  EXPECT_GT(fv[Feature::kNnzSd], 0.0);
  EXPECT_GT(fv[Feature::kNnzMax], fv[Feature::kNnzAvg]);
}

TEST(Features, BandedMatrixBandwidthMatchesParameter) {
  const CsrMatrix m = gen::banded(4000, 64, 10, 54);
  const auto fv = extract_features(m);
  EXPECT_LE(fv[Feature::kBwMax], 128.0);
  EXPECT_GT(fv[Feature::kBwAvg], 0.0);
}

TEST(Features, BitIdenticalAcrossThreadCounts) {
  // scan_rows fills each row's slots in parallel and the statistics over
  // them stay serial, so every feature is bit-identical at any thread count.
  const CsrMatrix m = gen::powerlaw(20000, 1.8, 400, 59);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const FeatureVector one = extract_features(m);
  omp_set_num_threads(4);
  const FeatureVector four = extract_features(m);
  omp_set_num_threads(saved);
  for (int f = 0; f < kNumFeatures; ++f) {
    const auto k = static_cast<std::size_t>(f);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(one.v[k]), std::bit_cast<std::uint64_t>(four.v[k]))
        << feature_name(static_cast<Feature>(f));
  }
}

TEST(Features, ClusteringLowForBlockMatrix) {
  // Contiguous blocks -> few groups per row.
  const auto block = extract_features(gen::block_diagonal(512, 16, 55));
  const auto scattered = extract_features(gen::random_uniform(512, 16, 56));
  EXPECT_LT(block[Feature::kClusteringAvg], scattered[Feature::kClusteringAvg]);
}

TEST(Features, MissesHigherForScatteredMatrix) {
  const auto band = extract_features(gen::banded(1000, 12, 8, 57));
  const auto rand = extract_features(gen::random_uniform(1000, 8, 58));
  EXPECT_LT(band[Feature::kMissesAvg], rand[Feature::kMissesAvg]);
}

TEST(Features, NamesAreUnique) {
  std::set<std::string_view> names;
  for (int f = 0; f < kNumFeatures; ++f) {
    names.insert(feature_name(static_cast<Feature>(f)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumFeatures));
}

TEST(Features, SubsetsMatchPaperTable) {
  // O(N) subset has no NNZ-pass feature; O(NNZ) subset includes misses_avg.
  for (Feature f : feature_subset_linear()) {
    EXPECT_NE(f, Feature::kClusteringAvg);
    EXPECT_NE(f, Feature::kMissesAvg);
  }
  const auto full = feature_subset_full();
  EXPECT_NE(std::find(full.begin(), full.end(), Feature::kMissesAvg), full.end());
  EXPECT_NE(std::find(full.begin(), full.end(), Feature::kSize), full.end());
}

TEST(Features, ProjectPreservesOrder) {
  FeatureVector fv;
  fv[Feature::kNnzMin] = 1.0;
  fv[Feature::kNnzMax] = 2.0;
  const auto v = project(fv, {Feature::kNnzMax, Feature::kNnzMin});
  EXPECT_EQ(v, (std::vector<double>{2.0, 1.0}));
}

}  // namespace
}  // namespace sparta
