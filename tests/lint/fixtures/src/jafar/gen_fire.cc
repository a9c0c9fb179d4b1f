// ndp-analyze fixture: generation branch outside the Device constructor —
// generation-dispatch fires.
namespace ndp::fixture {
bool GenFire(DeviceGeneration gen) {
  return gen == DeviceGeneration::kV2BankLevel;
}
}  // namespace ndp::fixture
