// ndp-analyze fixture: discarded dispatch Status — status fires.
namespace ndp::fixture {
void StatusFire(Driver* drv, ProbeJob probe) {
  drv->Submit(probe, nullptr);
}
}  // namespace ndp::fixture
