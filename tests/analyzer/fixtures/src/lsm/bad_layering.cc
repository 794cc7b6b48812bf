// Seeded lsm-layering violation: a src/lsm/ file including a cluster/
// header. The storage engine must stay below the distribution layer;
// its own lsm/ include is clean.

#include "cluster/region.h"
#include "lsm/lsm_tree.h"

namespace diffindex {

void FixtureLsmLayering() {}

}  // namespace diffindex
