// Minimal leveled logging to stderr. Simulators log at kDebug/kTrace when
// diagnosing timing issues; default level is kWarn so test output stays clean.
#pragma once

#include <cstdarg>
#include <cstdint>

namespace ndp {

enum class LogLevel : uint8_t { kTrace = 0, kDebug, kInfo, kWarn, kError };

/// Sets the global minimum level that will be emitted.
// ndp-lint: test-only-ok tests raise and restore the threshold
void SetLogLevel(LogLevel level);
// ndp-lint: test-only-ok tests raise and restore the threshold
LogLevel GetLogLevel();

/// printf-style log call; a newline is appended.
void Logf(LogLevel level, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace ndp

#define NDP_LOG_TRACE(...) ::ndp::Logf(::ndp::LogLevel::kTrace, __VA_ARGS__)
#define NDP_LOG_DEBUG(...) ::ndp::Logf(::ndp::LogLevel::kDebug, __VA_ARGS__)
#define NDP_LOG_INFO(...) ::ndp::Logf(::ndp::LogLevel::kInfo, __VA_ARGS__)
#define NDP_LOG_WARN(...) ::ndp::Logf(::ndp::LogLevel::kWarn, __VA_ARGS__)
#define NDP_LOG_ERROR(...) ::ndp::Logf(::ndp::LogLevel::kError, __VA_ARGS__)
