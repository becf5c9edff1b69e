// Lightweight Status / Result<T> error propagation for I/O paths.
//
// MONARCH's data path crosses thread-pool boundaries where exceptions are
// awkward to propagate, so the middleware reports recoverable I/O failures
// through value types (in the spirit of absl::Status / std::expected).
// Programming errors still assert.
#pragma once

#include <cassert>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace monarch {

/// Canonical error space, modelled after absl::StatusCode. Only the codes
/// the storage stack actually produces are defined.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kNotFound,          ///< file or tier does not exist
  kAlreadyExists,     ///< create of an existing file
  kOutOfRange,        ///< read past EOF / bad offset
  kResourceExhausted, ///< tier quota exceeded
  kFailedPrecondition,///< call sequencing violated (e.g. read after close)
  kUnavailable,       ///< transient backend failure, retryable
  kDataLoss,          ///< checksum mismatch / torn record
  kInvalidArgument,
  kInternal,
};

/// Human-readable name for a status code ("OK", "NOT_FOUND", ...).
std::string_view StatusCodeName(StatusCode code) noexcept;

/// A cheap, movable (code, message) pair. `Status::Ok()` carries no message
/// and never allocates.
class [[nodiscard]] Status {
 public:
  Status() noexcept : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return {}; }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// "NOT_FOUND: dataset/file-004.tfrecord" style rendering.
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

// Factory helpers mirroring absl's.
inline Status NotFoundError(std::string m) {
  return {StatusCode::kNotFound, std::move(m)};
}
inline Status AlreadyExistsError(std::string m) {
  return {StatusCode::kAlreadyExists, std::move(m)};
}
inline Status OutOfRangeError(std::string m) {
  return {StatusCode::kOutOfRange, std::move(m)};
}
inline Status ResourceExhaustedError(std::string m) {
  return {StatusCode::kResourceExhausted, std::move(m)};
}
inline Status FailedPreconditionError(std::string m) {
  return {StatusCode::kFailedPrecondition, std::move(m)};
}
inline Status UnavailableError(std::string m) {
  return {StatusCode::kUnavailable, std::move(m)};
}
inline Status DataLossError(std::string m) {
  return {StatusCode::kDataLoss, std::move(m)};
}
inline Status InvalidArgumentError(std::string m) {
  return {StatusCode::kInvalidArgument, std::move(m)};
}
inline Status InternalError(std::string m) {
  return {StatusCode::kInternal, std::move(m)};
}

/// Result<T>: either a value or a non-OK Status. Accessing the value of a
/// failed result asserts, so callers must branch on ok() first.
template <typename T>
class [[nodiscard]] Result {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): ergonomic `return value;`
  Result(T value) : payload_(std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor): ergonomic `return status;`
  Result(Status status) : payload_(std::move(status)) {
    assert(!std::get<Status>(payload_).ok() &&
           "Result<T> must not be constructed from an OK status");
  }

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(payload_);
  }

  /// The error, or OK. A reference on lvalues, so checking a miss (the
  /// retry loop's IsRetryableError) never copies its message.
  [[nodiscard]] const Status& status() const& {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }
  [[nodiscard]] Status status() && {
    if (ok()) return Status::Ok();
    return std::get<Status>(std::move(payload_));
  }

  [[nodiscard]] T& value() & {
    assert(ok() && "value() on failed Result");
    return std::get<T>(payload_);
  }
  [[nodiscard]] const T& value() const& {
    assert(ok() && "value() on failed Result");
    return std::get<T>(payload_);
  }
  [[nodiscard]] T&& value() && {
    assert(ok() && "value() on failed Result");
    return std::get<T>(std::move(payload_));
  }

  [[nodiscard]] T value_or(T fallback) const {
    return ok() ? std::get<T>(payload_) : std::move(fallback);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace monarch

/// Propagate a non-OK Status to the caller.
#define MONARCH_RETURN_IF_ERROR(expr)                  \
  do {                                                 \
    ::monarch::Status _st = (expr);                    \
    if (!_st.ok()) return _st;                         \
  } while (0)

/// Bind `lhs` to the value of a Result-returning expression or propagate
/// its status. `lhs` may include a declaration: MONARCH_ASSIGN_OR_RETURN(auto x, F());
#define MONARCH_ASSIGN_OR_RETURN(lhs, expr)            \
  MONARCH_ASSIGN_OR_RETURN_IMPL_(                      \
      MONARCH_CONCAT_(_monarch_result_, __LINE__), lhs, expr)

#define MONARCH_CONCAT_INNER_(a, b) a##b
#define MONARCH_CONCAT_(a, b) MONARCH_CONCAT_INNER_(a, b)
#define MONARCH_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                   \
  if (!tmp.ok()) return std::move(tmp).status();       \
  lhs = std::move(tmp).value()
