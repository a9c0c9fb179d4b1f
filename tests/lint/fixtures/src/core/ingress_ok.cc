// bounded-queue fixture: the annotated example — the pool's capacity field
// is a member of a scanned struct, so the claimed bound cross-checks against
// the field index and nothing fires.
#include <cstdint>
#include <vector>

struct IngressPoolConfig {
  uint64_t cap = 64;  ///< pool capacity, fixed at construction
};

struct IngressPool {
  std::vector<int> pool_;  // ndp: bounded-by(IngressPoolConfig::cap)
};
