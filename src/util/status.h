// Status and Result<T>: exception-free error handling in the style of
// Arrow/RocksDB. All fallible public APIs in this project return Status or
// Result<T>; exceptions are reserved for programming errors (via JAFAR_CHECK).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace ndp {

/// Machine-readable category of a failure.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kDeviceBusy,       ///< accelerator is executing another command
  kTimingViolation,  ///< a DRAM command violated the timing rules
  kDeadlineExceeded  ///< work cancelled because its deadline passed
};

/// Returns a stable human-readable name for a status code ("InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// True for the codes a faulting device reports: a timeout, machine check or
/// corruption (kInternal), a busy engine, or exhausted device resources. The
/// driver retries these, the pushdown circuit breaker counts them, and
/// operators record a CPU fallback for them. Validation errors say nothing
/// about device health, and re-dispatching cannot fix them.
constexpr bool IsDeviceFault(StatusCode code) {
  return code == StatusCode::kInternal || code == StatusCode::kDeviceBusy ||
         code == StatusCode::kResourceExhausted;
}

/// \brief Outcome of a fallible operation: a code plus a message.
///
/// Cheap to return in the OK case (no allocation). Modeled on arrow::Status.
///
/// [[nodiscard]]: silently dropping a Status hides failures (a faulted device
/// job, a rejected command) — every call site must check, propagate, or carry
/// an explicit status waiver comment naming the rule and the reason.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
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
  static Status DeviceBusy(std::string msg) {
    return Status(StatusCode::kDeviceBusy, std::move(msg));
  }
  static Status TimingViolation(std::string msg) {
    return Status(StatusCode::kTimingViolation, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string msg_;
};

/// \brief Either a value of type T or an error Status.
///
/// Modeled on arrow::Result. `ValueOrDie()` aborts on error (test/demo use);
/// production call sites should check `ok()` and use `value()` / `status()`.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : var_(std::move(value)) {}              // NOLINT implicit
  Result(Status status) : var_(std::move(status)) {}       // NOLINT implicit

  bool ok() const { return std::holds_alternative<T>(var_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(var_);
  }

  T& value() & { return std::get<T>(var_); }
  const T& value() const& { return std::get<T>(var_); }
  T&& value() && { return std::get<T>(std::move(var_)); }

  /// Returns the value, aborting the process if this holds an error.
  T& ValueOrDie() &;
  T&& ValueOrDie() &&;

 private:
  std::variant<T, Status> var_;
};

namespace internal {
[[noreturn]] void DieOnErrorStatus(const Status& st);
}  // namespace internal

template <typename T>
T& Result<T>::ValueOrDie() & {
  if (!ok()) internal::DieOnErrorStatus(status());
  return value();
}

template <typename T>
T&& Result<T>::ValueOrDie() && {
  if (!ok()) internal::DieOnErrorStatus(status());
  return std::move(*this).value();
}

}  // namespace ndp

/// Propagates a non-OK Status from an expression to the caller.
#define NDP_RETURN_NOT_OK(expr)                   \
  do {                                            \
    ::ndp::Status _st = (expr);                   \
    if (!_st.ok()) return _st;                    \
  } while (0)

/// Assigns the value of a Result expression or propagates its error.
#define NDP_ASSIGN_OR_RETURN(lhs, rexpr)          \
  auto NDP_CONCAT_(_res_, __LINE__) = (rexpr);    \
  if (!NDP_CONCAT_(_res_, __LINE__).ok())         \
    return NDP_CONCAT_(_res_, __LINE__).status(); \
  lhs = std::move(NDP_CONCAT_(_res_, __LINE__)).value()

#define NDP_CONCAT_(a, b) NDP_CONCAT_IMPL_(a, b)
#define NDP_CONCAT_IMPL_(a, b) a##b

/// Project-conventional alias for NDP_RETURN_NOT_OK, matching the JAFAR_*
/// naming used by the build options and test helpers.
#define JAFAR_RETURN_IF_ERROR(expr) NDP_RETURN_NOT_OK(expr)
