#pragma once
// ndp-analyze fixture: never-set fires on both fields of FireConfig. `unset`
// is assigned nowhere, and `test_set` only by tests/never_set_test.cc — a
// test's write does not make a field a knob.
#include <cstdint>
namespace ndp::fixture {
struct FireConfig {
  uint32_t unset = 64;
  uint32_t test_set = 2;
};
}  // namespace ndp::fixture
