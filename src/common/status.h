// Copyright 2026 The AmnesiaDB Authors
//
// Status / StatusOr: exception-free error propagation in the style of
// Arrow and RocksDB. Every fallible public API in AmnesiaDB returns a
// Status or a StatusOr<T>.

#ifndef AMNESIA_COMMON_STATUS_H_
#define AMNESIA_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace amnesia {

/// \brief Machine-readable error category carried by a Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kResourceExhausted = 5,
  kUnimplemented = 6,
  kInternal = 7,
};

/// \brief Returns a stable human-readable name for a status code.
std::string_view StatusCodeToString(StatusCode code);

/// \brief Result of a fallible operation: a code plus an optional message.
///
/// Ok statuses are cheap to copy (no allocation). Non-ok statuses carry a
/// message describing the failure. Statuses must be inspected; discarding a
/// failure silently is a bug in the caller.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// \name Factory helpers, one per error category.
  /// @{
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// @}

  /// Returns true iff the status is OK.
  bool ok() const { return code_ == StatusCode::kOk; }
  /// Returns the status code.
  StatusCode code() const { return code_; }
  /// Returns the failure message (empty for OK statuses).
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// \brief Prints "StatusOr::value() on error: <status>" and aborts.
[[noreturn]] void DieOnErrorValue(const Status& status);

/// \brief Either a value of type T or a non-OK Status explaining its absence.
///
/// Mirrors arrow::Result / absl::StatusOr. Accessing the value of a failed
/// StatusOr is a programming error: in every build, value() and the
/// operators print the carried status and abort.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Constructs from a value (implicitly, so `return value;` works).
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Constructs from a non-OK status (implicitly, so `return status;` works).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  /// Returns true iff a value is present.
  bool ok() const { return value_.has_value(); }

  /// Returns the carried status (OK when a value is present).
  const Status& status() const { return status_; }

  /// Returns the value. Precondition: ok().
  const T& value() const& {
    if (!ok()) DieOnErrorValue(status_);
    return *value_;
  }
  /// Returns the value (mutable). Precondition: ok().
  T& value() & {
    if (!ok()) DieOnErrorValue(status_);
    return *value_;
  }
  /// Moves the value out. Precondition: ok().
  T&& value() && {
    if (!ok()) DieOnErrorValue(status_);
    return std::move(*value_);
  }

  /// Returns the value if present, otherwise `fallback`.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

/// \brief Propagates a non-OK status to the caller.
#define AMNESIA_RETURN_NOT_OK(expr)             \
  do {                                          \
    ::amnesia::Status _st = (expr);             \
    if (!_st.ok()) return _st;                  \
  } while (false)

/// \brief Assigns the value of a StatusOr expression or propagates its error.
#define AMNESIA_ASSIGN_OR_RETURN(lhs, expr)     \
  AMNESIA_ASSIGN_OR_RETURN_IMPL(                \
      AMNESIA_CONCAT_(_status_or_, __LINE__), lhs, expr)

#define AMNESIA_CONCAT_IMPL_(a, b) a##b
#define AMNESIA_CONCAT_(a, b) AMNESIA_CONCAT_IMPL_(a, b)
#define AMNESIA_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

}  // namespace amnesia

#endif  // AMNESIA_COMMON_STATUS_H_
