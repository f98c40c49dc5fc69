// The message of the InvalidArgument a call throws, for tests that pin a
// precondition's text byte for byte.
#pragma once

#include <string>

#include "common/error.h"

namespace sb::test {

/// what() of the InvalidArgument `fn` throws; "" when it throws none.
template <typename Fn>
std::string invalid_what(Fn&& fn) {
  try {
    fn();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

}  // namespace sb::test
