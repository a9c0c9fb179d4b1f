// ndp-analyze fixture: the same dispatch, waived with a reason.
namespace ndp::fixture {
Status WatchdogWaive(Device* dev, JobDescriptor job) {
  // ndp-lint: watchdog-arm-ok fixture: caller pumps the queue and drains
  Status s = dev->Start(job, nullptr);
  return s;
}
}  // namespace ndp::fixture
