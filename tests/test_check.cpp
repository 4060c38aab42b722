// Tests for sparta::check — the contract macro layer, the structural
// validators for every rewritten format, and a randomized single-field
// corruption fuzz loop proving each flipped field produces a *named*
// violation rather than a silent pass or an unrelated crash.
//
// The contract-macro tests adapt to the level this binary was compiled at
// (SPARTA_CHECK_LEVEL): in an off build they prove the macros are true
// no-ops (conditions unevaluated, counter constant 0); in a cheap/full
// build they prove conditions run and failures throw ContractViolation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <limits>
#include <string>
#include <vector>

#include "check/contract.hpp"
#include "check/validate.hpp"
#include "check/validate_tuner.hpp"
#include "common/prng.hpp"
#include "common/types.hpp"
#include "gen/generators.hpp"
#include "sparse/csr.hpp"
#include "sparse/delta_csr.hpp"
#include "sparse/partition.hpp"
#include "sparse/sell.hpp"
#include "tuner/optimizations.hpp"
#include "tuner/optimizer.hpp"

namespace sparta {
namespace {

using check::Level;
using check::ValidationError;

/// Run `fn`, expect a ValidationError whose violation() equals `name`.
template <typename Fn>
void expect_violation(const std::string& name, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected ValidationError '" << name << "', nothing thrown";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.violation(), name) << "full message: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << "expected ValidationError '" << name << "', got: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Corruptible deep copies of each format's raw arrays. The view() methods
// adapt them onto the arrays-level validators, so a test can flip exactly
// one field and prove the validator names that violation.
// ---------------------------------------------------------------------------

struct CsrCopy {
  index_t nrows = 0, ncols = 0;
  std::vector<offset_t> rowptr;
  std::vector<index_t> colind;
  std::size_t values_size = 0;

  static CsrCopy of(const CsrMatrix& m) {
    CsrCopy c;
    c.nrows = m.nrows();
    c.ncols = m.ncols();
    c.rowptr.assign(m.rowptr().begin(), m.rowptr().end());
    c.colind.assign(m.colind().begin(), m.colind().end());
    c.values_size = m.values().size();
    return c;
  }
  check::CsrArrays view() const { return {nrows, ncols, rowptr, colind, values_size}; }
};

/// The stream of `m` with the shape and rowptr of `source`, the matrix it
/// was compressed from.
struct DeltaCopy {
  index_t nrows = 0, ncols = 0;
  DeltaWidth width = DeltaWidth::k8;
  std::vector<offset_t> rowptr;
  std::vector<index_t> first_col;
  std::vector<std::uint8_t> deltas8;
  std::vector<std::uint16_t> deltas16;

  static DeltaCopy of(const DeltaCsrMatrix& m, const CsrMatrix& source) {
    DeltaCopy c;
    c.nrows = source.nrows();
    c.ncols = source.ncols();
    c.width = m.width();
    c.rowptr.assign(source.rowptr().begin(), source.rowptr().end());
    c.first_col.assign(m.first_col().begin(), m.first_col().end());
    c.deltas8.assign(m.deltas8().begin(), m.deltas8().end());
    c.deltas16.assign(m.deltas16().begin(), m.deltas16().end());
    return c;
  }
  check::DeltaArrays view() const {
    return {nrows, ncols, width, rowptr, first_col, deltas8, deltas16};
  }
};

struct SellCopy {
  index_t nrows = 0, ncols = 0, chunk = 0;
  offset_t nnz = 0;
  std::vector<index_t> perm, row_len, chunk_len;
  std::vector<offset_t> chunk_off;
  std::vector<index_t> colind;
  std::vector<value_t> values;

  static SellCopy of(const SellMatrix& m) {
    SellCopy c;
    c.nrows = m.nrows();
    c.ncols = m.ncols();
    c.chunk = m.chunk_rows();
    c.nnz = m.nnz();
    c.colind.assign(m.colind().begin(), m.colind().end());
    c.values.assign(m.values().begin(), m.values().end());
    for (index_t p = 0; p < m.nrows(); ++p) {
      c.perm.push_back(m.row_of(p));
      c.row_len.push_back(m.row_len(p));
    }
    for (index_t k = 0; k < m.nchunks(); ++k) {
      c.chunk_len.push_back(m.chunk_len(k));
      c.chunk_off.push_back(m.chunk_offset(k));
    }
    return c;
  }
  check::SellArrays view() const {
    return {nrows, ncols, chunk, nnz, perm, row_len, chunk_len, chunk_off, colind, values};
  }
};

// Shared fixtures. banded() keeps intra-row deltas small so delta
// compression always succeeds; powerlaw() varies row lengths so SELL padding
// exists.
const CsrMatrix& banded_m() {
  static const CsrMatrix m = gen::banded(302, 8, 6, 42);
  return m;
}
const CsrMatrix& powerlaw_m() {
  static const CsrMatrix m = gen::powerlaw(300, 1.7, 60, 99);
  return m;
}

// ---------------------------------------------------------------------------
// Accept: every structure the factories emit passes full validation.
// ---------------------------------------------------------------------------

TEST(Accept, AllFactoriesProduceValidStructures) {
  EXPECT_NO_THROW(check::validate(banded_m(), Level::kFull));
  EXPECT_NO_THROW(check::validate(powerlaw_m(), Level::kFull));

  const auto delta = DeltaCsrMatrix::compress(banded_m());
  ASSERT_TRUE(delta.has_value());
  EXPECT_NO_THROW(check::validate(*delta, banded_m(), Level::kFull));

  EXPECT_NO_THROW(check::validate(SellMatrix::from_csr(powerlaw_m(), 4, 64), Level::kFull));

  const auto parts = partition_balanced_nnz(powerlaw_m(), 7);
  EXPECT_NO_THROW(
      check::validate(std::span<const RowRange>{parts}, powerlaw_m().nrows(), Level::kFull));
  const auto eq = partition_equal_rows(301, 8);
  EXPECT_NO_THROW(check::validate(std::span<const RowRange>{eq}, 301, Level::kFull));
}

TEST(Accept, CheapLevelAcceptsValidStructures) {
  EXPECT_NO_THROW(check::validate(powerlaw_m(), Level::kCheap));
  EXPECT_NO_THROW(check::validate(SellMatrix::from_csr(powerlaw_m(), 8, 128), Level::kCheap));
}

TEST(Accept, OffLevelIgnoresCorruptArrays) {
  auto c = CsrCopy::of(banded_m());
  c.rowptr[1] = -5;
  EXPECT_NO_THROW(check::validate_csr(c.view(), Level::kOff));
}

// ---------------------------------------------------------------------------
// Reject: one corruption per invariant, each with its stable name.
// ---------------------------------------------------------------------------

TEST(RejectCsr, NamedViolations) {
  const auto base = CsrCopy::of(banded_m());

  auto c = base;
  c.nrows = -1;
  expect_violation("csr.dims", [&] { check::validate_csr(c.view()); });

  c = base;
  c.rowptr.pop_back();
  expect_violation("csr.rowptr.size", [&] { check::validate_csr(c.view()); });

  c = base;
  c.rowptr[0] = 1;
  expect_violation("csr.rowptr.front", [&] { check::validate_csr(c.view()); });

  c = base;
  c.rowptr[2] = c.rowptr[1] - 1;
  expect_violation("csr.rowptr.monotonic", [&] { check::validate_csr(c.view()); });

  c = base;
  c.values_size += 1;
  expect_violation("csr.nnz.consistency", [&] { check::validate_csr(c.view()); });

  c = base;
  c.colind[0] = c.ncols;
  expect_violation("csr.colind.bounds", [&] { check::validate_csr(c.view()); });

  c = base;
  {
    // Duplicate the second entry of a row that has at least two entries.
    index_t row = -1;
    for (index_t i = 0; i < c.nrows; ++i) {
      if (c.rowptr[static_cast<std::size_t>(i) + 1] - c.rowptr[static_cast<std::size_t>(i)] >= 2) {
        row = i;
        break;
      }
    }
    ASSERT_GE(row, 0);
    const auto b = static_cast<std::size_t>(c.rowptr[static_cast<std::size_t>(row)]);
    c.colind[b + 1] = c.colind[b];
  }
  expect_violation("csr.colind.sorted", [&] { check::validate_csr(c.view()); });
}

TEST(RejectCsr, CheapSkipsNnzScanButCatchesShape) {
  auto c = CsrCopy::of(banded_m());
  c.colind[0] = c.ncols;  // an O(nnz) finding...
  EXPECT_NO_THROW(check::validate_csr(c.view(), Level::kCheap));
  c.rowptr[0] = 1;  // ...but shape findings fire at cheap
  expect_violation("csr.rowptr.front", [&] { check::validate_csr(c.view(), Level::kCheap); });
}

TEST(RejectDelta, NamedViolations) {
  const auto delta = DeltaCsrMatrix::compress(banded_m());
  ASSERT_TRUE(delta.has_value());
  ASSERT_EQ(delta->width(), DeltaWidth::k8);
  const auto base = DeltaCopy::of(*delta, banded_m());

  auto c = base;
  c.width = DeltaWidth::k16;  // deltas8 now the "wrong" populated stream
  expect_violation("delta.width.purity", [&] { check::validate_delta(c.view()); });

  c = base;
  c.deltas8.pop_back();
  expect_violation("delta.stream.size", [&] { check::validate_delta(c.view()); });

  c = base;
  c.first_col.pop_back();
  expect_violation("delta.first_col.size", [&] { check::validate_delta(c.view()); });

  // Find a row with >= 2 entries for the per-element corruptions. Search
  // from the end: a high row starts at a high column, so a huge delta is
  // guaranteed to push the reconstruction past ncols.
  index_t row = -1;
  for (index_t i = base.nrows - 1; i >= 0; --i) {
    if (base.rowptr[static_cast<std::size_t>(i) + 1] - base.rowptr[static_cast<std::size_t>(i)] >=
        2) {
      row = i;
      break;
    }
  }
  ASSERT_GE(row, 0);
  const auto slot = static_cast<std::size_t>(base.rowptr[static_cast<std::size_t>(row)]) + 1;

  c = base;
  c.first_col[static_cast<std::size_t>(row)] = -1;
  expect_violation("delta.first_col.bounds", [&] { check::validate_delta(c.view()); });

  c = base;
  c.deltas8[slot] = 0;  // columns would repeat
  expect_violation("delta.deltas.positive", [&] { check::validate_delta(c.view()); });

  c = base;
  c.deltas8[slot] = 255;  // reconstructed column escapes [0, ncols)
  expect_violation("delta.col.bounds", [&] { check::validate_delta(c.view()); });
}

TEST(RejectSell, NamedViolations) {
  const auto sell = SellMatrix::from_csr(powerlaw_m(), 4, 64);
  const auto base = SellCopy::of(sell);
  ASSERT_GT(base.chunk_len.size(), 1u);

  auto c = base;
  c.chunk = 0;
  expect_violation("sell.chunk.positive", [&] { check::validate_sell(c.view()); });

  c = base;
  c.perm.pop_back();
  expect_violation("sell.perm.size", [&] { check::validate_sell(c.view()); });

  c = base;
  c.chunk_len.pop_back();
  c.chunk_off.pop_back();
  expect_violation("sell.chunks.count", [&] { check::validate_sell(c.view()); });

  c = base;
  c.chunk_off[1] += 1;
  expect_violation("sell.chunk_off.layout", [&] { check::validate_sell(c.view()); });

  c = base;
  c.values.pop_back();
  expect_violation("sell.storage.size", [&] { check::validate_sell(c.view()); });

  c = base;
  c.row_len[0] = c.chunk_len[0] + 1;
  expect_violation("sell.chunk_len.fit", [&] { check::validate_sell(c.view()); });

  c = base;
  c.nnz += 1;
  expect_violation("sell.nnz.sum", [&] { check::validate_sell(c.view()); });

  // Padding no longer tight: empty out chunk 0's rows (and keep the nnz sum
  // consistent) so the chunk is padded wider than any row needs.
  c = base;
  {
    offset_t removed = 0;
    for (index_t lane = 0; lane < c.chunk; ++lane) {
      const auto p = static_cast<std::size_t>(lane);
      if (p < c.row_len.size()) {
        removed += c.row_len[p];
        c.row_len[p] = 0;
      }
    }
    ASSERT_GT(removed, 0);
    c.nnz -= removed;
  }
  expect_violation("sell.chunk_len.tight", [&] { check::validate_sell(c.view()); });

  c = base;
  c.perm[1] = c.perm[0];
  expect_violation("sell.perm.bijection", [&] { check::validate_sell(c.view()); });

  c = base;
  c.perm[0] = -1;
  expect_violation("sell.perm.bounds", [&] { check::validate_sell(c.view()); });

  c = base;
  ASSERT_GT(c.row_len[0], 0);
  c.colind[static_cast<std::size_t>(c.chunk_off[0])] = c.ncols;
  expect_violation("sell.colind.bounds", [&] { check::validate_sell(c.view()); });

  // Scribble on a padding slot (a lane position past its row's length).
  c = base;
  {
    bool found = false;
    const auto n = c.row_len.size();
    for (std::size_t p = 0; p < n && !found; ++p) {
      const auto k = p / static_cast<std::size_t>(c.chunk);
      const auto lane = p % static_cast<std::size_t>(c.chunk);
      if (c.row_len[p] < c.chunk_len[k]) {
        const auto slot = static_cast<std::size_t>(c.chunk_off[k]) +
                          static_cast<std::size_t>(c.row_len[p]) *
                              static_cast<std::size_t>(c.chunk) +
                          lane;
        c.values[slot] = 3.5;
        found = true;
      }
    }
    ASSERT_TRUE(found) << "matrix has no SELL padding; pick a more skewed generator";
  }
  expect_violation("sell.padding.zero", [&] { check::validate_sell(c.view()); });
}

TEST(RejectPartition, NamedViolations) {
  expect_violation("partition.nrows",
                   [&] { check::validate_partition({}, -1); });
  expect_violation("partition.empty",
                   [&] { check::validate_partition({}, 10); });

  std::vector<RowRange> p{{1, 10}};
  expect_violation("partition.start",
                   [&] { check::validate_partition(p, 10); });

  p = {{0, 5}, {5, 3}};
  expect_violation("partition.inverted",
                   [&] { check::validate_partition(p, 10); });

  p = {{0, 5}, {6, 10}};
  expect_violation("partition.contiguity",
                   [&] { check::validate_partition(p, 10); });

  p = {{0, 5}, {5, 9}};
  expect_violation("partition.end",
                   [&] { check::validate_partition(p, 10); });
}

TEST(RejectPlan, NamedViolations) {
  OptimizationPlan good;
  good.strategy = "profile";
  good.optimizations = {Optimization::kDeltaVec, Optimization::kPrefetch};
  good.config = config_for(good.optimizations);
  good.gflops = 1.25;
  good.t_spmv_seconds = 1e-3;
  good.t_pre_seconds = 2e-2;
  EXPECT_NO_THROW(check::validate(good, Level::kFull));

  auto plan = good;
  plan.strategy.clear();
  expect_violation("plan.strategy", [&] { check::validate(plan, Level::kFull); });

  plan = good;
  plan.optimizations = {static_cast<Optimization>(17)};
  expect_violation("plan.optimizations.range", [&] { check::validate(plan, Level::kFull); });

  plan = good;
  plan.optimizations = {Optimization::kPrefetch, Optimization::kDeltaVec};
  expect_violation("plan.optimizations.order", [&] { check::validate(plan, Level::kFull); });

  plan = good;
  plan.config = sim::KernelConfig{};
  expect_violation("plan.config.consistency", [&] { check::validate(plan, Level::kFull); });

  plan = good;
  plan.gflops = -0.5;
  expect_violation("plan.gflops", [&] { check::validate(plan, Level::kFull); });

  plan = good;
  plan.gflops = std::numeric_limits<double>::quiet_NaN();
  expect_violation("plan.gflops", [&] { check::validate(plan, Level::kFull); });

  plan = good;
  plan.t_pre_seconds = -1.0;
  expect_violation("plan.times", [&] { check::validate(plan, Level::kFull); });
}

// ---------------------------------------------------------------------------
// Constructor wiring: CsrMatrix keeps its historical unconditional check,
// now with a named violation.
// ---------------------------------------------------------------------------

TEST(Wiring, CsrConstructorNamesTheViolation) {
  numa_vector<offset_t> rowptr{1, 1};
  try {
    const CsrMatrix bad{1, 1, std::move(rowptr), {}, {}};
    FAIL() << "malformed CSR accepted";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.violation(), "csr.rowptr.front");
  }
  // ...and it still reads as the documented std::invalid_argument.
  numa_vector<offset_t> rowptr2{0, 2};
  EXPECT_THROW((CsrMatrix{1, 1, std::move(rowptr2), {0}, {1.0}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Contract macros: behavior keyed to the compiled check level.
// ---------------------------------------------------------------------------

TEST(Contract, RequireMatchesCompiledLevel) {
  if constexpr (check::kLevel >= Level::kCheap) {
    const auto before = check::evaluations();
    SPARTA_REQUIRE(2 + 2 == 4, "arithmetic holds");
    EXPECT_GT(check::evaluations(), before);
    EXPECT_THROW(SPARTA_REQUIRE(false, "must fire"), check::ContractViolation);
    try {
      SPARTA_REQUIRE(1 < 0, "ordering went missing");
    } catch (const check::ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("SPARTA_REQUIRE"), std::string::npos);
      EXPECT_NE(what.find("1 < 0"), std::string::npos);
      EXPECT_NE(what.find("ordering went missing"), std::string::npos);
    }
  } else {
    // Off build: the condition is an unevaluated sizeof operand — the side
    // effect must not run and the evaluation counter is a constant zero.
    bool evaluated = false;
    SPARTA_REQUIRE((evaluated = true), "condition must not execute at level off");
    EXPECT_FALSE(evaluated);
    EXPECT_EQ(check::evaluations(), 0u);
#if SPARTA_CHECK_LEVEL == 0
    static_assert(check::evaluations() == 0,
                  "off-build evaluations() must be a compile-time constant 0");
#endif
  }
}

TEST(Contract, AssertActiveOnlyAtFull) {
  if constexpr (check::kLevel >= Level::kFull) {
    EXPECT_THROW(SPARTA_ASSERT(false, "full-level invariant"), check::ContractViolation);
  } else {
    bool evaluated = false;
    SPARTA_ASSERT((evaluated = true), "must not execute below level full");
    EXPECT_FALSE(evaluated);
  }
}

TEST(Contract, StructureMacroFollowsLevel) {
  auto c = CsrCopy::of(banded_m());
  c.colind[0] = c.ncols;  // full-effort finding only
  const auto view = c.view();
  if constexpr (check::kLevel == Level::kOff) {
    EXPECT_NO_THROW(SPARTA_CHECK_STRUCTURE(view));
  } else if constexpr (check::kLevel == Level::kCheap) {
    EXPECT_NO_THROW(SPARTA_CHECK_STRUCTURE(view));
    c.rowptr[0] = 1;
    const auto shape_broken = c.view();
    EXPECT_THROW(SPARTA_CHECK_STRUCTURE(shape_broken), ValidationError);
  } else {
    EXPECT_THROW(SPARTA_CHECK_STRUCTURE(view), ValidationError);
  }
}

static_assert(static_cast<int>(check::kLevel) == SPARTA_CHECK_LEVEL,
              "kLevel mirrors the preprocessor define");

// ---------------------------------------------------------------------------
// Randomized corruption fuzz: flip one field, expect a named violation from
// the right family — never a pass, never an unrelated exception type.
// ---------------------------------------------------------------------------

template <typename View>
void expect_named_family(const char* family, const View& v,
                         void (*validator)(const View&, Level)) {
  try {
    validator(v, Level::kFull);
    FAIL() << "corrupted " << family << " structure accepted";
  } catch (const ValidationError& e) {
    EXPECT_FALSE(e.violation().empty());
    EXPECT_EQ(e.violation().rfind(family, 0), 0u)
        << "violation '" << e.violation() << "' not in family '" << family << "'";
  }
}

TEST(Fuzz, CsrSingleFieldCorruptions) {
  const auto base = CsrCopy::of(powerlaw_m());
  Xoshiro256 rng{0xC0FFEE01};
  for (int iter = 0; iter < 150; ++iter) {
    auto c = base;
    switch (rng() % 5) {
      case 0:  // break monotonicity somewhere
        c.rowptr[1 + rng() % static_cast<std::uint64_t>(c.nrows)] = -1;
        break;
      case 1:  // column escapes the matrix on the high side
        c.colind[rng() % c.colind.size()] =
            c.ncols + static_cast<index_t>(rng() % 8);
        break;
      case 2:  // column escapes on the low side
        c.colind[rng() % c.colind.size()] = -1 - static_cast<index_t>(rng() % 8);
        break;
      case 3:  // values array loses or gains entries
        c.values_size += 1 + rng() % 3;
        break;
      case 4:  // rowptr tail no longer matches the colind length
        c.rowptr.back() += 1 + static_cast<offset_t>(rng() % 5);
        break;
    }
    expect_named_family("csr.", c.view(), &check::validate_csr);
  }
}

TEST(Fuzz, SellSingleFieldCorruptions) {
  const auto sell = SellMatrix::from_csr(powerlaw_m(), 4, 64);
  const auto base = SellCopy::of(sell);
  Xoshiro256 rng{0xC0FFEE02};
  const auto n = base.perm.size();
  for (int iter = 0; iter < 150; ++iter) {
    auto c = base;
    switch (rng() % 5) {
      case 0: {  // duplicate a permutation entry (drops a row silently)
        const auto dst = rng() % n;
        const auto src = rng() % n;
        c.perm[dst] = c.perm[src];
        break;
      }
      case 1:  // permutation escapes the row range
        c.perm[rng() % n] = c.nrows + static_cast<index_t>(rng() % 4);
        break;
      case 2:  // a row length goes negative
        c.row_len[rng() % n] = -1 - static_cast<index_t>(rng() % 4);
        break;
      case 3:  // an offset drifts off the running-sum layout
        c.chunk_off[rng() % c.chunk_off.size()] += 1 + static_cast<offset_t>(rng() % 7);
        break;
      case 4:  // the nnz descriptor lies
        c.nnz += 1 + static_cast<offset_t>(rng() % 9);
        break;
    }
    if (c.perm == base.perm && c.row_len == base.row_len &&
        c.chunk_off == base.chunk_off && c.nnz == base.nnz) {
      continue;  // case 0 may pick p mapping onto itself — not a corruption
    }
    expect_named_family("sell.", c.view(), &check::validate_sell);
  }
}

TEST(Fuzz, DeltaSingleFieldCorruptions) {
  const auto delta = DeltaCsrMatrix::compress(banded_m());
  ASSERT_TRUE(delta.has_value());
  const auto base = DeltaCopy::of(*delta, banded_m());
  Xoshiro256 rng{0xC0FFEE03};
  for (int iter = 0; iter < 150; ++iter) {
    auto c = base;
    switch (rng() % 4) {
      case 0:  // width flag disagrees with the populated stream
        c.width = c.width == DeltaWidth::k8 ? DeltaWidth::k16 : DeltaWidth::k8;
        break;
      case 1:  // the delta stream loses entries
        c.deltas8.resize(c.deltas8.size() - 1 - rng() % 4);
        break;
      case 2:  // a first column escapes the matrix
        c.first_col[rng() % c.first_col.size()] = c.ncols + static_cast<index_t>(rng() % 4);
        break;
      case 3:  // a huge delta pushes the reconstruction out of range
        c.deltas8[rng() % c.deltas8.size()] = 255;
        break;
    }
    if (c.width == base.width && c.deltas8.size() == base.deltas8.size() &&
        c.first_col == base.first_col && c.deltas8 == base.deltas8) {
      continue;
    }
    // Case 2 can hit an empty row whose first_col slot is never read, and
    // case 3 can hit slot 0 of a row (the unused absolute-column slot):
    // those corruptions are benign by design, so accept "no throw" only for
    // them by validating and checking the family on failure.
    try {
      check::validate_delta(c.view(), Level::kFull);
    } catch (const ValidationError& e) {
      EXPECT_EQ(e.violation().rfind("delta.", 0), 0u)
          << "violation '" << e.violation() << "' not in family 'delta.'";
    }
  }
}

TEST(Fuzz, PartitionSingleFieldCorruptions) {
  const auto parts = partition_balanced_nnz(powerlaw_m(), 8);
  const index_t nrows = powerlaw_m().nrows();
  Xoshiro256 rng{0xC0FFEE04};
  for (int iter = 0; iter < 100; ++iter) {
    auto p = parts;
    const auto i = rng() % p.size();
    switch (rng() % 3) {
      case 0:
        p[i].begin += 1 + static_cast<index_t>(rng() % 5);
        break;
      case 1:
        p[i].end -= 1 + static_cast<index_t>(rng() % 5);
        break;
      case 2:
        p.erase(p.begin() + static_cast<std::ptrdiff_t>(i));
        break;
    }
    try {
      check::validate_partition(p, nrows, Level::kFull);
      // Erasing an empty range can leave a valid partition; anything else
      // must throw.
      ASSERT_EQ(p.size(), parts.size() - 1);
    } catch (const ValidationError& e) {
      EXPECT_EQ(e.violation().rfind("partition.", 0), 0u);
    }
  }
}

}  // namespace
}  // namespace sparta
