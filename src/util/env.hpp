// Environment-variable overrides for bench/example budgets, so the same
// binaries run in seconds by default but can be scaled to paper-size runs.
#pragma once

#include <cstdint>
#include <string>

namespace saga::util {

/// Returns the integer value of `name`, or `fallback` when unset/malformed.
std::int64_t env_int(const std::string& name, std::int64_t fallback);

/// Returns the double value of `name`, or `fallback` when unset/malformed.
double env_double(const std::string& name, double fallback);

}  // namespace saga::util
