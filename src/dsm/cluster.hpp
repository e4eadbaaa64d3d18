// The paper's cluster — one home node plus remote threads on their own
// virtual platforms, connected by in-process channels — is a ShardedCluster
// at its default of one shard.  These names are the ones the §5 workloads
// (workloads/{matmul,lu,sor}.hpp) and their drivers use.
#pragma once

#include "dsm/sharded_cluster.hpp"

namespace hdsm::dsm {

using Cluster = ShardedCluster;
using HomeOptions = ShardedHomeOptions;

}  // namespace hdsm::dsm
