// IVF-PQ preset of IvfIndex, kept for perfbench/driver.cpp, which names
// IvfPqIndex and IvfPqConfig. This header goes when the driver moves to
// IvfIndex.
#pragma once

#include "v2v/index/ivf_index.hpp"

namespace v2v::index {

/// An IvfConfig whose codec defaults to product quantization.
struct IvfPqConfig : IvfConfig {
  IvfPqConfig() noexcept { codec = IvfCodec::kPq; }
};

using IvfPqIndex = IvfIndex;

}  // namespace v2v::index
