#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace saga::util {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::once_flag g_env_once;

void init_from_env() {
  const char* env = std::getenv("SAGA_LOG_LEVEL");
  if (env == nullptr) return;
  if (std::strcmp(env, "debug") == 0) g_level = LogLevel::kDebug;
  else if (std::strcmp(env, "info") == 0) g_level = LogLevel::kInfo;
  else if (std::strcmp(env, "warn") == 0) g_level = LogLevel::kWarn;
  else if (std::strcmp(env, "error") == 0) g_level = LogLevel::kError;
}

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

}  // namespace

LogLevel log_level() noexcept {
  std::call_once(g_env_once, init_from_env);
  return g_level.load();
}

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  static std::mutex io_mutex;
  std::lock_guard<std::mutex> lock(io_mutex);
  std::fprintf(stderr, "[saga %s] %s\n", level_name(level), message.c_str());
}

}  // namespace saga::util
