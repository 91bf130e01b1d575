// Copyright 2026 The AmnesiaDB Authors
//
// In-memory span recorder for the traced end-to-end run. Spans are kept
// in a vector for the whole run and written out once, at the end, as
// Chrome trace-event JSON (the format /tracez serves, so the file loads
// in ui.perfetto.dev the same way).
//
// Calls too frequent to be spans of their own — the controller journals
// and flushes once per forgotten row — are folded into their parent span
// as a call count plus total nanoseconds (AddCalls). Self time subtracts
// both the child spans and these folded calls.
//
// Single-threaded: only the thread that drives the batches records.

#ifndef AMNESIA_BENCH_E2E_TRACER_H_
#define AMNESIA_BENCH_E2E_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace amnesia {
namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Kinds of call folded into a parent span instead of getting their own.
enum class FoldedCall : int { kLogAppend = 0, kLogFlush = 1 };
inline constexpr int kFoldedCallKinds = 2;

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< Index into Tracer::spans(), -1 for a root.
  uint32_t batch = 0;   ///< Batch the span belongs to (0 = outside batches).
  uint64_t calls[kFoldedCallKinds] = {0, 0};
  int64_t calls_ns[kFoldedCallKinds] = {0, 0};

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// RAII span: opens on construction as a child of the innermost open
  /// span, closes on destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_;
  };

  /// Reserves room up front so a reallocation is never charged to a span.
  Tracer() { spans_.reserve(size_t{1} << 17); }

  /// Stamps every span opened from now on with `batch`.
  void set_batch(uint32_t batch) { batch_ = batch; }

  /// Folds one call of `kind` lasting `ns` into the innermost open span.
  void AddCall(FoldedCall kind, int64_t ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus child spans minus folded calls.
  std::vector<int64_t> SelfTimesNs() const;

  /// Writes every span as a Chrome trace-event "X" event.
  Status WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  uint32_t batch_ = 0;
};

}  // namespace e2e
}  // namespace amnesia

#endif  // AMNESIA_BENCH_E2E_TRACER_H_
