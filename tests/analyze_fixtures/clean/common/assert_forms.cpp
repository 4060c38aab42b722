// Must stay quiet under contract.raw-assert: static_assert, an identifier
// that merely ends in "assert", and assert( inside comments and strings are
// not raw asserts.
namespace fixture {

static_assert(sizeof(int) >= 2, "assert(x) in a message");

inline bool soft_assert(bool ok) { return ok; }

inline bool checked(int b) {
  // assert(b != 0) — prose, not code.
  const char* why = "assert(b != 0)";
  return soft_assert(b != 0) && why != nullptr;
}

}  // namespace fixture
