// Module attribution for sampled stacks.
//
// A profiling-timer sample is a stack of return addresses. Each sample is
// charged to exactly one layer: the source module (src/sim, src/mpi, ...)
// whose namespace owns the innermost *program* frame. Frames in the C/C++
// runtime (shared libraries), in std:: template instantiations and in the
// gcr:: helpers outside the eight modules (util: Rng, Cli, stats) pass the
// charge on to their caller. `sim` is split by class into engine, network,
// storage and other, and `core` into protocol, msglog and recovery.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Layer {
  kSimEngine,
  kSimNetwork,
  kSimStorage,
  kSimOther,
  kMpi,
  kCoreProtocol,
  kCoreMsglog,
  kCoreRecovery,
  kCkpt,
  kApps,
  kGroup,
  kTrace,
  kExp,
  kUnattributed,  ///< no frame of the eight modules on the stack
};
inline constexpr int kNumLayers = static_cast<int>(Layer::kUnattributed) + 1;

/// Metric prefix of a layer, e.g. "sim.engine" or "core.protocol".
const char* layer_name(Layer layer);

/// The qualified name of the function a demangled symbol names: return
/// type, template arguments, parameter lists and " [clone ...]" suffixes
/// removed, split into its `::` components. For
/// "gcr::sim::Co<void> gcr::apps::body(int) [clone .actor]" this is
/// {"gcr", "apps", "body"}.
std::vector<std::string> qualified_name(std::string_view demangled);

/// The layer that owns one demangled program frame, or nullopt when the
/// frame passes its charge to the caller.
std::optional<Layer> frame_layer(std::string_view demangled);

struct Frame {
  bool in_program = false;  ///< inside the executable, not a shared library
  std::string name;         ///< demangled symbol ("" when unknown)
};

struct Attribution {
  Layer layer = Layer::kUnattributed;
  bool runtime_lib = false;  ///< innermost frame is in the C/C++ runtime
};

/// Charges one sample; `frames[0]` is the interrupted (innermost) frame.
Attribution attribute(const std::vector<Frame>& frames);

}  // namespace perfbench
