// ndp-analyze fixture: test-side writes of the never_set_* configs. A test's
// write alone does not make a field settable.
namespace ndp::fixture {
void NeverSetTest(FireConfig* f, WaiveConfig* w) {
  f->test_set = 3;
  w->swept = 4;
}
}  // namespace ndp::fixture
