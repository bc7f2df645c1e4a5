// The traced run (--trace 1): per-layer metrics, each measured from this
// benchmark's own code by timing calls into one module's public functions,
// plus the engines' own counters read from the EngineConfig::metrics side
// channel. Kept apart from the timed run; the traced run also reports its
// own overhead (traced vs untraced engine throughput).

#ifndef REPLAYBENCH_SRC_LAYERS_H_
#define REPLAYBENCH_SRC_LAYERS_H_

#include <string>
#include <vector>

#include "replaybench/src/util.h"
#include "replaybench/src/workloads.h"

namespace replaybench {

Outcome RunTraced(WorkloadKind kind, const RunContext& ctx);

}  // namespace replaybench

#endif  // REPLAYBENCH_SRC_LAYERS_H_
