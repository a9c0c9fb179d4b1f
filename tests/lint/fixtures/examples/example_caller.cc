// ndp-analyze fixture: an example program is a caller like any bench, so
// ExampleReached() is reached. std::chrono here would trip wall-clock in
// src/ or tests/, but examples/ files are never rule-checked.
#include <chrono>
namespace ndp::fixture {
int ExampleMain() {
  (void)std::chrono::steady_clock::now();
  return ExampleReached();
}
}  // namespace ndp::fixture
