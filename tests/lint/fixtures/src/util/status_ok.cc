// ndp-analyze fixture: a no-argument Start() (a traffic generator's, not a
// device dispatch) at statement position — status must not fire.
namespace ndp::fixture {
void StatusOk(HostTraffic& traffic) {
  traffic.Start();
}
}  // namespace ndp::fixture
