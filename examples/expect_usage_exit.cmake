# Runs one binary with one argument and fails unless the binary rejects it
# cleanly: exit code 2 and a usage message on stderr, not an abort.
#
#   cmake -DBIN=<executable> -DARG=<argument> -P expect_usage_exit.cmake
execute_process(COMMAND "${BIN}" "${ARG}" RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage:")
  message(FATAL_ERROR
          "${BIN} ${ARG}: expected exit 2 with usage, got '${rc}':\n${err}")
endif()
