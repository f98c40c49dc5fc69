#include "common/error.h"

void sb::detail::throw_invalid(const char* msg) { throw InvalidArgument(msg); }
