#pragma once
// ndp-analyze fixture: a field only a test writes, waived with a reason.
#include <cstdint>
namespace ndp::fixture {
struct WaiveConfig {
  // ndp-lint: never-set-ok fixture: the test sweeps this design parameter
  uint32_t swept = 16;
};
}  // namespace ndp::fixture
