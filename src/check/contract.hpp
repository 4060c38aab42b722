// sparta::check — contract macros and the compile-time check level.
//
// The optimizer rewrites matrix structure aggressively (delta-compressed
// index streams, symmetric storage, SELL chunk padding, per-thread row
// partitions) and the solver engine runs all of it inside one persistent
// OpenMP region — the exact shape where silent structural corruption becomes
// a wrong answer instead of a crash. This layer makes the structural
// contracts executable:
//
//   SPARTA_REQUIRE(cond, msg)  precondition / cheap invariant; active at
//                              check level cheap and full
//   SPARTA_ASSERT(cond, msg)   expensive internal invariant (O(nnz) scans);
//                              active at level full only
//   SPARTA_CHECK_STRUCTURE(x)  run the structural validator for x
//                              (check/validate.hpp) at the effort the build
//                              level selects: nothing at off, the O(rows)
//                              subset at cheap, everything at full
//
// The level is fixed at compile time by the SPARTA_CHECK_LEVEL preprocessor
// define (0 = off, 1 = cheap, 2 = full), driven by the CMake cache variable
// of the same name. Release-family builds default to off, and the off
// expansion is a true no-op: the condition is only an unevaluated operand of
// sizeof, so it is name-checked but never executed and no code is emitted —
// mirroring the obs no-op pattern, with the emptiness of the off-mode state
// enforced by static_asserts below.
//
// Contract failures throw check::ContractViolation (a std::logic_error):
// they are programming errors, unlike check::ValidationError (bad input
// data, a std::invalid_argument — see validate.hpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#ifndef SPARTA_CHECK_LEVEL
#define SPARTA_CHECK_LEVEL 0
#endif

static_assert(SPARTA_CHECK_LEVEL >= 0 && SPARTA_CHECK_LEVEL <= 2,
              "SPARTA_CHECK_LEVEL must be 0 (off), 1 (cheap) or 2 (full)");

namespace sparta::check {

/// How much verification a build (or one validate() call) performs.
enum class Level : int {
  kOff = 0,    // no checks at all
  kCheap = 1,  // O(rows) structural subset: sizes, bounds, monotonicity
  kFull = 2,   // everything, including O(nnz) scans
};

/// The level this translation unit was compiled at.
inline constexpr Level kLevel = static_cast<Level>(SPARTA_CHECK_LEVEL);

std::string_view to_string(Level l);

/// Thrown by a failed SPARTA_REQUIRE / SPARTA_ASSERT.
class ContractViolation : public std::logic_error {
 public:
  ContractViolation(const char* kind, const char* expr, const char* msg, const char* file,
                    long line);
};

/// Throw a ContractViolation describing the failed condition.
[[noreturn]] void fail(const char* kind, const char* expr, const char* msg, const char* file,
                       long line);

#if SPARTA_CHECK_LEVEL >= 1

namespace detail {
/// Bump the process-wide evaluation counter; returns true so it can sit on
/// the left of && inside an expression macro.
bool count_evaluation() noexcept;
}  // namespace detail

/// Number of contract conditions evaluated since process start. Lets tests
/// prove the wiring fires in checked builds — and that it compiles out in
/// off builds, where this is a constant 0.
std::uint64_t evaluations() noexcept;

#else  // SPARTA_CHECK_LEVEL == 0: compile-time-checked no-op path.

constexpr std::uint64_t evaluations() noexcept { return 0; }

namespace detail {

/// The off-mode contract state: an empty tag with no-op hooks. Exists only
/// to static_assert the no-op guarantee the same way obs does for its
/// disabled handles.
struct NoopContractState {
  constexpr bool count_evaluation() const noexcept { return true; }
};

static_assert(std::is_empty_v<NoopContractState>,
              "off-mode contract state must carry no state");
static_assert(noexcept(NoopContractState{}.count_evaluation()),
              "off-mode contract hooks must be no-ops");

}  // namespace detail

#endif  // SPARTA_CHECK_LEVEL

}  // namespace sparta::check

// Discarded expansion: the condition and message are operands of sizeof, so
// they stay syntax- and name-checked but are never evaluated and emit no
// code. (sizeof of an expression is an unevaluated context by [expr.sizeof].)
#define SPARTA_CHECK_DISCARD_(cond, msg) \
  ((void)sizeof((cond) ? 1 : 0), (void)sizeof(msg))

#if SPARTA_CHECK_LEVEL >= 1
#define SPARTA_REQUIRE(cond, msg)                                          \
  ((::sparta::check::detail::count_evaluation() && (cond))                 \
       ? (void)0                                                           \
       : ::sparta::check::fail("SPARTA_REQUIRE", #cond, (msg), __FILE__, __LINE__))
#else
#define SPARTA_REQUIRE(cond, msg) SPARTA_CHECK_DISCARD_(cond, msg)
#endif

#if SPARTA_CHECK_LEVEL >= 2
#define SPARTA_ASSERT(cond, msg)                                           \
  ((::sparta::check::detail::count_evaluation() && (cond))                 \
       ? (void)0                                                           \
       : ::sparta::check::fail("SPARTA_ASSERT", #cond, (msg), __FILE__, __LINE__))
#else
#define SPARTA_ASSERT(cond, msg) SPARTA_CHECK_DISCARD_(cond, msg)
#endif

// Structural-validator wiring (overload set in check/validate.hpp /
// check/validate_tuner.hpp). Variadic so multi-argument validators
// (partitions, symmetric-vs-source) wire the same way.
#if SPARTA_CHECK_LEVEL == 0
#define SPARTA_CHECK_STRUCTURE(...) ((void)sizeof(0, __VA_ARGS__))
#elif SPARTA_CHECK_LEVEL == 1
#define SPARTA_CHECK_STRUCTURE(...) \
  (::sparta::check::validate(__VA_ARGS__, ::sparta::check::Level::kCheap))
#else
#define SPARTA_CHECK_STRUCTURE(...) \
  (::sparta::check::validate(__VA_ARGS__, ::sparta::check::Level::kFull))
#endif
