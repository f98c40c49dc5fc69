// Exception types used across Switchboard. All errors derive from sb::Error
// so call sites can catch the library's failures without swallowing
// std::bad_alloc and friends.
#pragma once

#include <stdexcept>
#include <string>

namespace sb {

/// Base class for all Switchboard errors.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A caller violated a documented precondition (bad argument, out-of-range
/// index, inconsistent sizes).
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// An optimization model could not be solved (infeasible, unbounded, or the
/// solver hit an iteration/time limit).
class SolveError : public Error {
 public:
  using Error::Error;
};

/// Internal invariant broken — indicates a bug in this library.
class InternalError : public Error {
 public:
  using Error::Error;
};

namespace detail {
[[noreturn, gnu::cold]] void throw_invalid(const char* msg);
}  // namespace detail

/// Throws InvalidArgument with `msg` unless `cond` holds. Used to validate
/// public API preconditions; internal invariants use SB_ASSERT-style checks
/// in .cpp files instead. A passing check costs one branch: `msg` is a
/// literal and the exception is built out of line, in a cold function. A
/// message that needs runtime values goes in an explicit `if (!cond) throw
/// InvalidArgument(...)`, built only on failure; the deleted overload
/// keeps it out of here.
inline void require(bool cond, const char* msg) {
  if (!cond) detail::throw_invalid(msg);
}
void require(bool cond, const std::string& msg) = delete;

}  // namespace sb
