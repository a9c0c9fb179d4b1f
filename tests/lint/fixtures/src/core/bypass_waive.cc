// ndp-analyze fixture: the same dispatch, waived with a reason.
namespace ndp::fixture {
Status BypassWaive(Driver* drv, ProbeJob probe) {
  // ndp-lint: runtime-bypass-ok fixture: single-query calibration path
  return drv->Submit(probe, nullptr);
}
}  // namespace ndp::fixture
