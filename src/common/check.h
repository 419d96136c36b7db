#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace sp {

/// Error thrown by all library-level invariant violations.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws sp::Error with `msg` when `cond` is false.
///
/// Used for precondition/invariant checking on public API boundaries; cheap
/// enough to keep enabled in release builds.
inline void check(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

/// check() for a literal message: the std::string is built only on failure,
/// so a passing check allocates nothing.
inline void check(bool cond, const char* msg) {
  if (!cond) throw Error(msg);
}

/// check() with a lazily-formatted message built from stream operands.
template <typename... Parts>
void check_fmt(bool cond, const Parts&... parts) {
  if (!cond) {
    std::ostringstream os;
    (os << ... << parts);
    throw Error(os.str());
  }
}

}  // namespace sp
