// ScopedEnv: one environment override for the length of a test scope.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace lcmpi {

/// Sets `var` to `value`, or unsets it when `value` is null, and restores
/// the previous state when the scope ends.
class ScopedEnv {
 public:
  ScopedEnv(const char* var, const char* value) : var_(var) {
    if (const char* old = std::getenv(var)) saved_ = old;
    if (value != nullptr)
      ::setenv(var, value, /*overwrite=*/1);
    else
      ::unsetenv(var);
  }
  ~ScopedEnv() {
    if (saved_)
      ::setenv(var_, saved_->c_str(), 1);
    else
      ::unsetenv(var_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* var_;
  std::optional<std::string> saved_;
};

}  // namespace lcmpi
