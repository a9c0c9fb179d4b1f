// bounded-queue fixture: the suppressing waiver in a runtime header — state
// sized once at construction is exempt, with the reason recorded.
#pragma once

#include <vector>

struct RuntimeLanes {
  // ndp-lint: bounded-queue-ok one lane per device, built in the constructor
  std::vector<int> lanes_;
};
