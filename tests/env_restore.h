// Scope guard for tests that set process environment variables: restores
// (or unsets) one variable on scope exit, so a from_env test leaves the
// environment the rest of the binary runs under untouched.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace adasum {

class EnvRestore {
 public:
  explicit EnvRestore(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) old_ = v;
  }
  ~EnvRestore() {
    if (old_) setenv(name_, old_->c_str(), 1);
    else unsetenv(name_);
  }
  EnvRestore(const EnvRestore&) = delete;
  EnvRestore& operator=(const EnvRestore&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace adasum
