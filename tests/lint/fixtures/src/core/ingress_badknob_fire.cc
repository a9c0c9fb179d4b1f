// bounded-queue fixture: an annotation naming a field no scanned struct
// declares (IngressPoolConfig exists, its `overflow` member does not) claims
// an unverifiable bound and must fire the cross-check.
#include <vector>

struct IngressOverflow {
  std::vector<int> overflow_;  // ndp: bounded-by(IngressPoolConfig::overflow)
};
