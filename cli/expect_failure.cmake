# Runs PROG with the space-separated ARGS and fails unless it exits with
# status EXIT and its standard error matches STDERR_REGEX. A non-empty
# STDOUT names the file the program's standard output is written to:
#
#   cmake -DPROG=<path> "-DARGS=<args>" -DEXIT=<code> \
#         "-DSTDERR_REGEX=<regex>" [-DSTDOUT=<file>] -P expect_failure.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(STDOUT)
  set(stdout_to OUTPUT_FILE "${STDOUT}")
else()
  set(stdout_to OUTPUT_VARIABLE out)
endif()
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE status
                ${stdout_to}
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXIT}")
  message(FATAL_ERROR
    "exit status '${status}', expected ${EXIT}\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR
    "stderr does not match '${STDERR_REGEX}':\n${err}")
endif()
