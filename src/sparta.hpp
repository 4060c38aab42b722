// sparta — umbrella public header.
//
// sparta (SPArse Runtime Tuning & Analysis) is a lightweight, matrix- and
// architecture-adaptive SpMV optimizer reproducing Elafrou, Goumas &
// Koziris, "Performance Analysis and Optimization of Sparse Matrix-Vector
// Multiplication on Modern Multi- and Many-Core Processors" (IPDPS 2017).
//
// Typical use (see examples/quickstart.cpp):
//
//   auto matrix = sparta::mm::read_csr_file("matrix.mtx");
//   sparta::Autotuner tuner{sparta::knl()};
//   auto plan = tuner.tune(matrix);  // TuneOptions selects the strategy
//   // plan.classes  — detected bottlenecks, plan.config — kernel variant
//   sparta::kernels::PreparedSpmv spmv{matrix, {.config = plan.config}};
//   spmv.run(x, y);              // y = A x (spans; alpha/beta optional)
//   spmv.run(X, Y);              // Y = A X over rows x k operand views:
//                                // one matrix read per k right-hand sides
//
// Telemetry (sparta::obs) is off by default; set SPARTA_TELEMETRY=1 (or call
// obs::set_enabled(true)) to collect counters and tuning traces.
#pragma once

#include "common/prng.hpp"          // IWYU pragma: export
#include "common/statistics.hpp"    // IWYU pragma: export
#include "common/table.hpp"         // IWYU pragma: export
#include "common/timer.hpp"         // IWYU pragma: export
#include "common/types.hpp"         // IWYU pragma: export
#include "engine/solver_engine.hpp" // IWYU pragma: export
#include "features/features.hpp"    // IWYU pragma: export
#include "gen/generators.hpp"       // IWYU pragma: export
#include "gen/suite.hpp"            // IWYU pragma: export
#include "kernels/kernel_registry.hpp"  // IWYU pragma: export
#include "machine/machine_spec.hpp" // IWYU pragma: export
#include "ml/cross_validation.hpp"  // IWYU pragma: export
#include "obs/telemetry.hpp"        // IWYU pragma: export
#include "obs/trace.hpp"            // IWYU pragma: export
#include "sim/simulator.hpp"        // IWYU pragma: export
#include "sparse/build.hpp"         // IWYU pragma: export
#include "sparse/csr.hpp"           // IWYU pragma: export
#include "sparse/matrix_market.hpp" // IWYU pragma: export
#include "tuner/grid_search.hpp"    // IWYU pragma: export
#include "tuner/host_profiler.hpp"  // IWYU pragma: export
#include "tuner/optimizer.hpp"      // IWYU pragma: export
#include "tuner/partitioned_bounds.hpp"  // IWYU pragma: export
#include "vendor/inspector_executor.hpp"  // IWYU pragma: export
#include "vendor/vendor_csr.hpp"    // IWYU pragma: export
