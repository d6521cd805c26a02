// Tiny leveled logger. Experiments print their tables to stdout; diagnostics
// go to stderr through this logger so bench output stays machine-parseable.
#pragma once

#include <sstream>
#include <string>

namespace saga::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// The process-wide minimum level: SAGA_LOG_LEVEL
/// ("debug"/"info"/"warn"/"error"), read on first use; Info when unset.
LogLevel log_level() noexcept;

/// Writes one formatted line to stderr if `level` passes the filter.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, stream_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogStream log_debug() { return detail::LogStream(LogLevel::kDebug); }
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_error() { return detail::LogStream(LogLevel::kError); }

}  // namespace saga::util
