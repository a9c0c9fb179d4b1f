// ndp-analyze fixture: core-layer device dispatch — runtime-bypass fires.
namespace ndp::fixture {
Status BypassFire(Driver* drv, ProbeJob probe) {
  return drv->Submit(probe, nullptr);
}
}  // namespace ndp::fixture
