// ndp-analyze fixture: the test-side callers of the test_only_* headers. A
// test reference alone does not reach a function.
namespace ndp::fixture {
int TestOnlyTest(const Counted& c) {
  return TestOnlyFire(1) + TestOnlyWaive() + c.count();
}
}  // namespace ndp::fixture
