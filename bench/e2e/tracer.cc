// Copyright 2026 The AmnesiaDB Authors

#include "tracer.h"

#include <cinttypes>
#include <cstdio>

namespace amnesia {
namespace e2e {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  Span span;
  span.name = name;
  span.parent = tracer->open_;
  span.batch = tracer->batch_;
  index_ = static_cast<int32_t>(tracer->spans_.size());
  tracer->spans_.push_back(span);
  tracer->open_ = index_;
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  tracer->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_ = tracer_->spans_[index_].parent;
}

void Tracer::AddCall(FoldedCall kind, int64_t ns) {
  if (open_ < 0) return;
  const int k = static_cast<int>(kind);
  ++spans_[open_].calls[k];
  spans_[open_].calls_ns[k] += ns;
}

std::vector<int64_t> Tracer::SelfTimesNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] = s.duration_ns() - s.calls_ns[0] - s.calls_ns[1];
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.duration_ns();
  }
  return self;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace file '" + path + "'");
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* parent = s.parent >= 0 ? spans_[s.parent].name : "";
    // Trace-event timestamps are microseconds; keep nanosecond digits.
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"id\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"batch\":%u,\"span\":%zu,"
        "\"parent\":\"%s\",\"parent_span\":%d,\"log_appends\":%" PRIu64
        ",\"log_append_ns\":%" PRId64 ",\"log_flushes\":%" PRIu64
        ",\"log_flush_ns\":%" PRId64 "}}",
        i == 0 ? "" : ",\n", s.name, s.batch,
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.duration_ns()) / 1e3, s.batch, i, parent,
        s.parent, s.calls[0], s.calls_ns[0], s.calls[1], s.calls_ns[1]);
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) {
    return Status::Internal("cannot write trace file '" + path + "'");
  }
  return Status::OK();
}

}  // namespace e2e
}  // namespace amnesia
