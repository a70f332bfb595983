// Per-layer operation loops: each times one public operation of one layer
// in a tight loop (after a warm-up pass) and reports the median and
// quartiles of per-operation cost over several samples.
#pragma once

#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct LayerStat {
  std::string name;
  std::string unit;
  Summary s;
};

/// Runs every loop. `tile` is the Cholesky workload's tile side, used by
/// the tile-kernel and GlobalArray patch loops.
std::vector<LayerStat> measure_layers(int tile);

}  // namespace perfbench
