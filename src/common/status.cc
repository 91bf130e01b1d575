// Copyright 2026 The AmnesiaDB Authors

#include "common/status.h"

#include <cstdio>
#include <cstdlib>

namespace amnesia {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

void DieOnErrorValue(const Status& status) {
  std::fprintf(stderr, "StatusOr::value() on error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace amnesia
