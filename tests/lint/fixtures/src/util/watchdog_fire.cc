// ndp-analyze fixture: device dispatch with no watchdog — watchdog-arm fires.
namespace ndp::fixture {
Status WatchdogFire(Device* dev, JobDescriptor job) {
  Status s = dev->Start(job, nullptr);
  return s;
}
}  // namespace ndp::fixture
