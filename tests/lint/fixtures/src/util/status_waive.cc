// ndp-analyze fixture: the same discard, waived with a reason.
namespace ndp::fixture {
void StatusWaive(Driver* drv, ProbeJob probe) {
  // ndp-lint: status-ok fixture: probe call, failure handled by the drain
  drv->Submit(probe, nullptr);
}
}  // namespace ndp::fixture
