# Runs EXE with the space-separated ARGS and fails unless it exits 2, the
# examples' usage-error code. Usage:
#   cmake -DEXE=<binary> "-DARGS=<args>" -P expect_usage_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit '${rc}', expected 2")
endif()
