#include "util/env.hpp"

#include <cstdlib>

namespace saga::util {

std::int64_t env_int(const std::string& name, std::int64_t fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value) return fallback;
  return static_cast<std::int64_t>(parsed);
}

double env_double(const std::string& name, double fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value) return fallback;
  return parsed;
}

}  // namespace saga::util
