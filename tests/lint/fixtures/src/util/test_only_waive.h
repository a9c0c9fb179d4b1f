#pragma once
// ndp-analyze fixture: the same test-only function, waived with a reason.
namespace ndp::fixture {
// ndp-lint: test-only-ok fixture: observability hook the tests assert on
inline int TestOnlyWaive() { return 4; }
}  // namespace ndp::fixture
