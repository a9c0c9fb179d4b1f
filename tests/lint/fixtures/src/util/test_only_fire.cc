// ndp-analyze fixture: the out-of-line definition of TestOnlyFire().
#include "util/test_only_fire.h"
namespace ndp::fixture {
int TestOnlyFire(int x) { return x + 1; }
}  // namespace ndp::fixture
