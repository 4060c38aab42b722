// Tests for SELL-C-sigma: layout invariants, round-trips, padding behavior,
// the reference kernel, and the simulator path.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "gen/generators.hpp"
#include "sim/sell_sim.hpp"
#include "sparse/sell.hpp"
#include "vendor/inspector_executor.hpp"

namespace sparta {
namespace {

aligned_vector<value_t> random_vector(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng{seed};
  aligned_vector<value_t> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

TEST(Sell, RejectsBadParameters) {
  const CsrMatrix m = gen::diagonal(16);
  EXPECT_THROW(SellMatrix::from_csr(m, 0, 64), std::invalid_argument);
  EXPECT_THROW(SellMatrix::from_csr(m, 8, 0), std::invalid_argument);
}

TEST(Sell, LayoutGeometry) {
  const CsrMatrix m = gen::banded(100, 10, 6, 1001);
  const auto s = SellMatrix::from_csr(m, 8, 64);
  EXPECT_EQ(s.nrows(), 100);
  EXPECT_EQ(s.nnz(), m.nnz());
  EXPECT_EQ(s.nchunks(), 13);  // ceil(100/8)
  EXPECT_GE(s.padded_nnz(), s.nnz());
  EXPECT_GE(s.padding_ratio(), 1.0);
  // Chunk offsets are consistent with widths.
  for (index_t k = 0; k + 1 < s.nchunks(); ++k) {
    EXPECT_EQ(s.chunk_offset(k + 1),
              s.chunk_offset(k) + static_cast<offset_t>(s.chunk_len(k)) * 8);
  }
}

TEST(Sell, PermutationIsAPermutation) {
  const CsrMatrix m = gen::powerlaw(500, 1.7, 100, 1002);
  const auto s = SellMatrix::from_csr(m, 4, 32);
  std::vector<bool> seen(500, false);
  for (index_t p = 0; p < 500; ++p) {
    const index_t row = s.row_of(p);
    ASSERT_GE(row, 0);
    ASSERT_LT(row, 500);
    EXPECT_FALSE(seen[static_cast<std::size_t>(row)]);
    seen[static_cast<std::size_t>(row)] = true;
  }
}

TEST(Sell, SortingIsWindowedAndDescending) {
  const CsrMatrix m = gen::powerlaw(400, 1.6, 80, 1003);
  const index_t sigma = 64;
  const auto s = SellMatrix::from_csr(m, 8, sigma);
  for (index_t w = 0; w < 400; w += sigma) {
    for (index_t p = w + 1; p < std::min<index_t>(400, w + sigma); ++p) {
      EXPECT_GE(s.row_len(p - 1), s.row_len(p)) << "window " << w << " pos " << p;
    }
    // Windowing: every row in the window comes from the same source window.
    for (index_t p = w; p < std::min<index_t>(400, w + sigma); ++p) {
      EXPECT_GE(s.row_of(p), w);
      EXPECT_LT(s.row_of(p), std::min<index_t>(400, w + sigma));
    }
  }
}

TEST(Sell, SigmaOneKeepsOriginalOrder) {
  const CsrMatrix m = gen::powerlaw(100, 1.7, 50, 1004);
  const auto s = SellMatrix::from_csr(m, 4, 1);
  // sigma rounds up to the chunk (4); rows only permute inside each chunk.
  for (index_t p = 0; p < 100; ++p) EXPECT_EQ(s.row_of(p) / 4, p / 4);
}

TEST(Sell, SortingReducesPadding) {
  const CsrMatrix m = gen::powerlaw(4000, 1.6, 800, 1005);
  const auto unsorted = SellMatrix::from_csr(m, 8, 1);
  const auto sorted = SellMatrix::from_csr(m, 8, 4000);
  EXPECT_LT(sorted.padding_ratio(), unsorted.padding_ratio());
}

TEST(Sell, UniformRowsHaveNoPadding) {
  const CsrMatrix m = gen::random_uniform(256, 10, 1006);
  const auto s = SellMatrix::from_csr(m, 8, 64);
  EXPECT_DOUBLE_EQ(s.padding_ratio(), 1.0);
}

TEST(Sell, RoundTripToCsr) {
  for (std::uint64_t seed : {1007ull, 1008ull}) {
    const CsrMatrix m = gen::powerlaw(700, 1.7, 150, seed);
    const auto s = SellMatrix::from_csr(m, 8, 128);
    EXPECT_EQ(s.to_csr(), m);
  }
  const CsrMatrix banded = gen::banded(333, 20, 7, 1009);
  EXPECT_EQ(SellMatrix::from_csr(banded, 4, 16).to_csr(), banded);
}

TEST(Sell, ReferenceKernelMatchesCsrReference) {
  const CsrMatrix m = gen::circuit_like(800, 3, 3, 600, 1010);
  const auto s = SellMatrix::from_csr(m, 8, 64);
  const auto x = random_vector(static_cast<std::size_t>(m.ncols()), 1011);
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  aligned_vector<value_t> got(static_cast<std::size_t>(m.nrows()), -5.0);
  spmv_reference(m, x, want);
  spmv_sell_reference(s, x, got);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(got[i], want[i], 1e-12);
}

TEST(SellSim, ProducesPositiveRates) {
  const CsrMatrix m = gen::banded(20000, 300, 9, 1016);
  const auto s = SellMatrix::from_csr(m, 8, 256);
  for (const auto& machine : paper_platforms()) {
    const auto r = sim::simulate_spmv_sell(s, machine);
    EXPECT_GT(r.gflops, 0.0) << machine.name;
    EXPECT_GT(r.seconds, 0.0) << machine.name;
  }
}

TEST(SellSim, SortingReducesTraffic) {
  // Same matrix, unsorted (high padding) vs sorted (low padding): the
  // sorted layout must move fewer bytes. Note it is *not* guaranteed to be
  // faster — sorting groups the scattered hub rows into few chunks, which
  // concentrates their gather latency onto few threads (the classic
  // locality-vs-balance tradeoff of the sigma parameter, which the model
  // reproduces).
  const CsrMatrix m = gen::powerlaw(30000, 1.6, 2000, 1017);
  const auto unsorted = SellMatrix::from_csr(m, 8, 1);
  const auto sorted = SellMatrix::from_csr(m, 8, 4096);
  const auto r_un = sim::simulate_spmv_sell(unsorted, knl());
  const auto r_so = sim::simulate_spmv_sell(sorted, knl());
  EXPECT_LT(r_so.total_dram_bytes, r_un.total_dram_bytes);
  EXPECT_GT(r_so.gflops, 0.0);
  EXPECT_GT(r_un.gflops, 0.0);
}

TEST(SellSim, SortingTradesPaddingForRowLocality) {
  // Uneven-length banded rows: sorting shrinks padding (and therefore
  // streamed bytes) but permutes rows out of diagonal order, degrading x
  // locality — the two effects the sigma parameter trades off. The model
  // must show both: fewer bytes, and a rate within a modest factor either
  // way (here: no more than 20% apart).
  CooMatrix coo{8000, 8000};
  Xoshiro256 rng{1019};
  for (index_t i = 0; i < 8000; ++i) {
    const auto len = static_cast<index_t>(1 + rng.bounded(16));  // uneven lengths
    for (index_t j = 0; j < len; ++j) {
      coo.add(i, std::min<index_t>(7999, i + j), 1.0);
    }
  }
  const CsrMatrix m = CsrMatrix::from_coo(coo);
  const auto unsorted = SellMatrix::from_csr(m, 8, 1);
  const auto sorted = SellMatrix::from_csr(m, 8, 1024);
  ASSERT_LT(sorted.padding_ratio(), unsorted.padding_ratio());
  const auto r_un = sim::simulate_spmv_sell(unsorted, knl());
  const auto r_so = sim::simulate_spmv_sell(sorted, knl());
  EXPECT_LT(r_so.total_dram_bytes, r_un.total_dram_bytes);
  EXPECT_GE(r_so.gflops, r_un.gflops * 0.8);
  EXPECT_LE(r_so.gflops, r_un.gflops * 1.2);
}

TEST(SellSim, InspectorExecutorCanPickSell) {
  // A short-row uniform matrix is SELL's sweet spot (no padding, vector
  // loads); the IE should at least not be worse with SELL in its pool.
  const CsrMatrix m = gen::random_uniform(30000, 8, 1018);
  const auto ie = vendor::inspector_executor(m, knl());
  EXPECT_GT(ie.gflops, 0.0);
  EXPECT_GT(ie.t_pre_seconds, 0.0);
}

}  // namespace
}  // namespace sparta
