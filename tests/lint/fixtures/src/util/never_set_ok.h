#pragma once
// ndp-analyze fixture: never-set stays quiet for every write form it
// accepts. The writers live in bench/never_set_writers.cc and, for
// `example_only`, in the examples/ call corpus.
#include <cstdint>
namespace ndp::fixture {
struct InnerConfig {
  uint32_t leaf = 0;  ///< written by `cfg.inner.leaf =`
};
struct OkConfig {
  uint64_t split = 0;         ///< `cfg.split =` with the value on the next line
  uint32_t designated = 0;    ///< designated initializer `{.designated = 1}`
  InnerConfig inner;          ///< the chain `cfg.inner.leaf =` writes it too
  uint32_t example_only = 0;  ///< written only under examples/
  static constexpr uint32_t kFixed = 8;  ///< not settable, never flagged
};
}  // namespace ndp::fixture
