// Profiling-timer sampler for the traced run.
//
// Sampler arms ITIMER_PROF; each SIGPROF records the stack of the process
// (glibc backtrace, warmed up before the timer starts so the handler never
// loads libgcc) into a preallocated buffer. After stop(), Symbolizer maps
// every address to a demangled name using the executable's own ELF symbol
// table (static and anonymous-namespace functions included), and
// attribution.hpp charges each sample to one layer.
#pragma once

#include <array>
#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attribution.hpp"

namespace perfbench {

/// Maps code addresses of this process to frames.
class Symbolizer {
 public:
  /// Reads the symbol table of /proc/self/exe. Construct before fork() so
  /// that children share the table.
  Symbolizer();

  Frame frame(std::uintptr_t pc) const;

 private:
  struct Symbol {
    std::uintptr_t addr = 0;  ///< link-time address
    std::uintptr_t size = 0;
    std::string name;  ///< mangled
  };
  std::uintptr_t bias_ = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> exec_ranges_;
  std::vector<Symbol> symbols_;  ///< sorted by addr
};

/// Samples per layer, plus those whose innermost frame is in the runtime.
struct LayerSamples {
  std::array<std::int64_t, kNumLayers> layer{};
  std::int64_t runtime_lib = 0;
  std::int64_t total = 0;
  std::int64_t dropped = 0;  ///< samples lost to a full buffer
};

/// At most one Sampler runs per process at a time.
class Sampler {
 public:
  static constexpr int kMaxFrames = 64;

  explicit Sampler(std::size_t capacity = 1 << 16);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start(int period_us = 1000);
  void stop();

  /// Charges every recorded sample; call after stop().
  LayerSamples attribute(const Symbolizer& symbolizer) const;

  std::size_t samples() const { return count_; }

 private:
  static void on_sigprof(int sig, siginfo_t* info, void* ucontext);

  std::size_t capacity_;
  std::unique_ptr<void*[]> frames_;
  std::unique_ptr<std::int32_t[]> depth_;  ///< frames kept per sample
  volatile std::size_t count_ = 0;
  volatile std::size_t dropped_ = 0;
  bool running_ = false;
};

}  // namespace perfbench
