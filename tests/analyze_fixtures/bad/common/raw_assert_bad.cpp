// Must flag contract.raw-assert: a raw assert in library code disappears
// under NDEBUG.
#include <cassert>

namespace fixture {

int checked_div(int a, int b) {
  assert(b != 0);
  return a / b;
}

}  // namespace fixture
