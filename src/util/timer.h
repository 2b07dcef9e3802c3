// Monotonic wall-clock helpers for runtime instrumentation.
#pragma once

#include <chrono>
#include <cstdint>

namespace relopt {

/// Nanoseconds on the monotonic (steady) clock. Only differences are
/// meaningful; the epoch is unspecified.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// \brief RAII stopwatch: adds the scope's elapsed wall time to `*sink` on
/// destruction. Cheap enough for per-NextBatch() instrumentation; the engine
/// is single-threaded so plain accumulation suffices.
class ScopedTimer {
 public:
  explicit ScopedTimer(uint64_t* sink) : sink_(sink), start_(MonotonicNanos()) {}
  ~ScopedTimer() { *sink_ += MonotonicNanos() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  uint64_t* sink_;
  uint64_t start_;
};

}  // namespace relopt
