// ndp-analyze fixture: an example program is a caller like any bench, so
// ExampleReached() is reached, and a writer, so OkConfig::example_only is
// set. std::chrono here would trip wall-clock in src/ or tests/, but
// examples/ files are never rule-checked.
#include <chrono>
namespace ndp::fixture {
int ExampleMain() {
  (void)std::chrono::steady_clock::now();
  return ExampleReached();
}
void ExampleConfigure(OkConfig* cfg) { cfg->example_only = 2; }
}  // namespace ndp::fixture
