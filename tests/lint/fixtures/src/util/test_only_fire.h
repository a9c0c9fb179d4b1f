#pragma once
// ndp-analyze fixture: a header function only a test calls — test-only fires
// on TestOnlyFire(). Its own declaration and its definition in
// test_only_fire.cc are not references.
namespace ndp::fixture {
int TestOnlyFire(int x);
}  // namespace ndp::fixture
