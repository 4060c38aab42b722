// Rule catalog backing `--explain <rule>` and the SARIF rule metadata:
// one entry per rule id with the rationale (why the paper's performance
// model cares) and a concrete example fix, so suppression reviews don't
// require opening DESIGN.md.
#include "analyzer.hpp"

namespace sparta::analyze {

const std::vector<RuleDoc>& rule_docs() {
  static const std::vector<RuleDoc> docs = {
      {"purity.alloc",
       "Hot-module loop bodies must not allocate.",
       "SpMV is bandwidth-bound; an allocation inside a solver or kernel loop "
       "serializes on the heap lock and evicts the working set.",
       "Hoist the container out of the loop, or pre-size buffers in the plan/"
       "setup phase."},
      {"purity.throw",
       "Hot-module loop bodies must not throw.",
       "Exception paths inhibit vectorization and add branches to the nnz "
       "loop.",
       "Validate inputs in setup code; use asserts in kernels."},
      {"purity.io",
       "Hot-module loop bodies must not perform I/O.",
       "Stream operations serialize the loop and destroy memory-level "
       "parallelism.",
       "Log outside the timed region; collect diagnostics into a buffer."},
      {"purity.lock",
       "Hot-module loop bodies must not take locks.",
       "A mutex in the row loop serializes the parallel region.",
       "Restructure so each thread owns disjoint output rows, or use a "
       "reduction."},
      {"omp.default-none",
       "Every OpenMP parallel region must declare default(none).",
       "Implicit sharing hides races; explicit lists make the sharing "
       "contract reviewable.",
       "Add default(none) and list every symbol in shared()/private()/"
       "reduction()."},
      {"omp.schedule-runtime",
       "schedule(runtime) only where the config allows it.",
       "Benchmarks must pin their schedule so measured numbers are "
       "reproducible.",
       "Use schedule(static) or schedule(dynamic, chunk) explicitly."},
      {"omp.shared-write",
       "Unsynchronized write to a shared variable inside a parallel region.",
       "A plain store to a shared scalar is a data race unless it is inside "
       "a critical/atomic or single/master construct.",
       "Use reduction(), atomic, or make the variable private."},
      {"omp.reduction-misuse",
       "Reduction variable used inconsistently with its declared operator.",
       "Mixing += with = or listing a non-accumulated variable silently "
       "drops updates.",
       "Accumulate only with the declared operator inside the region."},
      {"omp.private-escape",
       "Private variable's address escapes the parallel region.",
       "A pointer to a private copy dangles once the region ends.",
       "Copy the value out, or make the variable shared."},
      {"omp.barrier-divergence",
       "Barrier on a divergent path inside a parallel region.",
       "If not all threads reach the barrier the program deadlocks.",
       "Move the barrier out of the conditional."},
      {"omp.hot-critical",
       "critical section inside a hot-module loop.",
       "A critical region in the row loop serializes the kernel.",
       "Use a reduction or per-thread buffers merged after the loop."},
      {"omp.unpadded-atomic",
       "Atomic update to adjacent elements of a shared array.",
       "Neighboring elements share a cache line; atomics on them ping-pong "
       "the line between cores (false sharing).",
       "Pad per-thread slots to a cache line or accumulate privately."},
      {"layering.undeclared",
       "Module missing from the layering DAG.",
       "Layering is only enforceable when every module has a layer.",
       "Add the module to the layers map in analyzer.cpp."},
      {"layering.upward",
       "Include edge points up the layering DAG.",
       "Lower layers must not depend on higher ones or the build graph "
       "cycles.",
       "Invert the dependency or move the shared type down a layer."},
      {"layering.cycle",
       "Include cycle between headers.",
       "Cycles break incremental builds and hide ownership.",
       "Split the shared declarations into a lower-level header."},
      {"restrict.missing",
       "Kernel raw-pointer parameter without SPARTA_RESTRICT.",
       "Without restrict the compiler must assume y aliases x/values and "
       "cannot vectorize the nnz loop.",
       "Mark non-aliasing pointer parameters SPARTA_RESTRICT."},
      {"header.pragma-once",
       "Header missing #pragma once.",
       "Double inclusion breaks the build unpredictably.",
       "Add #pragma once as the first directive."},
      {"header.self-include",
       "Header is not self-sufficient.",
       "A header that compiles only after other includes breaks reuse.",
       "Include what you use directly in the header."},
      {"header.using-namespace",
       "using namespace at header scope.",
       "It leaks names into every includer.",
       "Qualify names or scope the using-declaration inside a function."},
      {"contract.raw-assert",
       "Raw assert() in library code.",
       "A raw assert vanishes under NDEBUG and aborts without context "
       "otherwise, so a broken structural invariant turns into a silent wrong "
       "answer in release builds.",
       "Use SPARTA_REQUIRE / SPARTA_ASSERT from check/contract.hpp, or "
       "static_assert for compile-time facts."},
      {"suppression.unused",
       "allow() comment no longer matches a finding.",
       "Stale suppressions hide future regressions at that line.",
       "Delete the comment."},
      {"flow.uninit-read",
       "Read of a local scalar no path has assigned.",
       "An uninitialized accumulator makes the kernel's output "
       "nondeterministic — the worst kind of SpMV bug, because the numbers "
       "look plausible.",
       "Initialize at the declaration: `value_t acc = 0.0;`."},
      {"flow.dead-store",
       "A stored value is never read on any path.",
       "Dead stores are wasted memory traffic in a bandwidth-bound code and "
       "usually indicate a logic slip (the wrong variable was assigned).",
       "Delete the store, or assign the variable that was actually meant."},
      {"flow.loop-invariant-load",
       "The same invariant lvalue is loaded repeatedly in a hot loop.",
       "Per the paper's roofline argument every avoidable load steals "
       "bandwidth from the nnz stream; `x.width` or `a.rowptr[i]` re-loaded "
       "each iteration defeats register reuse.",
       "Hoist it: `const index_t width = x.width;` before the loop."},
      {"index.domain-mix",
       "Subscript domain disagrees with the array's index domain.",
       "CSR-family code juggles three index spaces (row, column, nnz); "
       "subscripting values[] with a row id reads the wrong element and "
       "rarely crashes.",
       "Index rowptr/row_len by row, colind/values by nnz, x by column."},
      {"index.domain-narrowing",
       "nnz-domain value stored into a 32-bit row/col-typed integer.",
       "nnz counts exceed 2^31 on large matrices while rows/cols fit in "
       "index_t; truncating an offset corrupts the traversal only above that "
       "size.",
       "Store rowptr-derived offsets in offset_t (64-bit)."},
      {"loop.vectorization-blocker",
       "Construct in a hot innermost/simd loop that blocks vectorization.",
       "The paper attributes most single-thread SpMV headroom to the inner "
       "loop vectorizing; indirect calls, possible pointer aliasing, and "
       "unrecognized loop-carried dependences each force scalar code.",
       "Inline the call, add SPARTA_RESTRICT, or rewrite the recurrence as a "
       "reduction."},
  };
  return docs;
}

const RuleDoc* find_rule_doc(const std::string& rule) {
  for (const RuleDoc& d : rule_docs()) {
    if (d.id == rule) return &d;
  }
  return nullptr;
}

}  // namespace sparta::analyze
