// bounded-queue fixture: the runtime header behind the ingress is on the
// same admission path, so a growable member there with no bounded-by
// annotation (and no waiver) must fire.
#pragma once

#include <map>

struct RuntimeResults {
  std::map<int, int> results_;
};
