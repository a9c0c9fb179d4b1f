#pragma once
// ndp-analyze fixture: test-only stays quiet for a function whose only caller
// is under examples/ (the call corpus is read, never rule-checked) and for a
// lower_snake_case accessor that only a test reads.
namespace ndp::fixture {
inline int ExampleReached() { return 5; }
class Counted {
 public:
  int count() const { return count_; }

 private:
  int count_ = 0;
};
}  // namespace ndp::fixture
