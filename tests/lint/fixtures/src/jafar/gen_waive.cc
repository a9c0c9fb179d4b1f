// ndp-analyze fixture: the same branch outside the Device constructor, waived
// with a reason.
namespace ndp::fixture {
bool GenWaive(DeviceGeneration gen) {
  // ndp-lint: generation-dispatch-ok fixture: error-message formatting only
  return gen == DeviceGeneration::kV2BankLevel;
}
}  // namespace ndp::fixture
