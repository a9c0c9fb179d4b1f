// ndp-analyze fixture: a bench-side caller of the other rules' header
// fixtures, so test-only fires only where its own fixtures mean it to.
namespace ndp::fixture {
int CallHeaderFixtures() {
  return LayerFire() + LayerWaive() + GuardlessHeader() +
         WaivedGuardlessHeader();
}
}  // namespace ndp::fixture
