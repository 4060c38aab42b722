// Tests for the vendor-library stand-in: the conventional CSR kernel and
// the inspector-executor autotuner.
#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "gen/generators.hpp"
#include "kernels/kernel_registry.hpp"
#include "vendor/inspector_executor.hpp"
#include "vendor/vendor_csr.hpp"

namespace sparta {
namespace {

TEST(VendorCsr, ConfigIsConventional) {
  const auto cfg = vendor::vendor_csr_config();
  EXPECT_EQ(cfg.schedule, sim::Schedule::kStaticRows);
  EXPECT_FALSE(cfg.delta);
  EXPECT_FALSE(cfg.prefetch);
  EXPECT_FALSE(cfg.decomposed);
}

TEST(VendorCsr, SimulatedRateIsPositive) {
  const CsrMatrix m = gen::banded(20000, 200, 8, 401);
  for (const auto& machine : paper_platforms()) {
    EXPECT_GT(vendor::vendor_csr_gflops(m, machine), 0.0) << machine.name;
  }
}

TEST(VendorCsr, HostKernelMatchesReference) {
  const CsrMatrix m = gen::powerlaw(1500, 1.7, 200, 402);
  Xoshiro256 rng{403};
  aligned_vector<value_t> x(static_cast<std::size_t>(m.ncols()));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  aligned_vector<value_t> want(static_cast<std::size_t>(m.nrows()));
  aligned_vector<value_t> y(static_cast<std::size_t>(m.nrows()));
  spmv_reference(m, x, want);
  const kernels::PreparedSpmv prepared{
      m, kernels::SpmvOptions{.config = vendor::vendor_csr_config(), .threads = 4}};
  prepared.run(x, y);
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(y[i], want[i], 1e-12);
}

TEST(InspectorExecutor, CandidateListShape) {
  const auto& cands = vendor::ie_candidates();
  EXPECT_GE(cands.size(), 4u);
  // No candidate uses prefetch or decomposition — those are the paper
  // optimizer's edge over the vendor library.
  for (const auto& c : cands) {
    EXPECT_FALSE(c.prefetch);
    EXPECT_FALSE(c.decomposed);
  }
}

TEST(InspectorExecutor, NeverWorseThanVendorCsr) {
  for (const auto& machine : paper_platforms()) {
    const CsrMatrix m = gen::powerlaw(40000, 1.7, 2000, 404);
    const auto ie = vendor::inspector_executor(m, machine);
    EXPECT_GE(ie.gflops, vendor::vendor_csr_gflops(m, machine) * 0.999) << machine.name;
    EXPECT_GT(ie.t_pre_seconds, 0.0);
    EXPECT_GT(ie.t_spmv_seconds, 0.0);
  }
}

TEST(InspectorExecutor, PicksBalancedLayoutForSkewedMatrix) {
  const CsrMatrix m = gen::powerlaw(40000, 1.6, 3000, 405);
  const auto ie = vendor::inspector_executor(m, knl());
  EXPECT_NE(ie.chosen.schedule, sim::Schedule::kStaticRows);
}

TEST(InspectorExecutor, InspectionScalesWithMatrix) {
  const CsrMatrix small = gen::banded(4000, 100, 8, 406);
  const CsrMatrix large = gen::banded(80000, 100, 8, 407);
  const auto ie_small = vendor::inspector_executor(small, knl());
  const auto ie_large = vendor::inspector_executor(large, knl());
  EXPECT_GT(ie_large.t_pre_seconds, ie_small.t_pre_seconds);
}

}  // namespace
}  // namespace sparta
