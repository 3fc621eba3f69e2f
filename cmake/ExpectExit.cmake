# ExpectExit.cmake — script mode (cmake -P) check for CLI ctests that
# require a command to exit with one exact status, e.g. a rejected
# argument must exit 1: not 0 (accepted), and not a crash.
#
# Usage: cmake -DPROGRAM=<exe> "-DARGS=<args>" -DEXPECT=<status>
#              -P ExpectExit.cmake

if(NOT PROGRAM OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DPROGRAM=<exe> \"-DARGS=<args>\" "
    "-DEXPECT=<status> -P ExpectExit.cmake")
endif()

separate_arguments(argList UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND ${PROGRAM} ${argList}
  RESULT_VARIABLE runResult
  OUTPUT_VARIABLE runOutput
  ERROR_VARIABLE runError)
if(NOT runResult STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${ARGS}' exited with ${runResult}, expected "
    "${EXPECT}\nstdout: ${runOutput}\nstderr: ${runError}")
endif()
message(STATUS "'${ARGS}' exited with ${EXPECT}: ${runError}")
