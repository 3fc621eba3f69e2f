# GoldenOutput.cmake — script mode (cmake -P) driver for the experiment
# golden ctests. Runs one command, requires it to exit 0, and requires
# its stdout to equal a checked-in golden file byte for byte.
#
# Usage: cmake -DPROGRAM=<exe> "-DARGS=<args>" -DGOLDEN=<file>
#              -DOUTPUT=<file> -P GoldenOutput.cmake

if(NOT PROGRAM OR NOT GOLDEN OR NOT OUTPUT)
  message(FATAL_ERROR "usage: cmake -DPROGRAM=<exe> \"-DARGS=<args>\" "
    "-DGOLDEN=<file> -DOUTPUT=<file> -P GoldenOutput.cmake")
endif()

separate_arguments(argList UNIX_COMMAND "${ARGS}")

execute_process(
  COMMAND ${PROGRAM} ${argList}
  OUTPUT_FILE ${OUTPUT}
  RESULT_VARIABLE runResult)
if(NOT runResult EQUAL 0)
  message(FATAL_ERROR "golden: '${ARGS}' exited with ${runResult}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
  RESULT_VARIABLE compareResult)
if(NOT compareResult EQUAL 0)
  message(FATAL_ERROR "golden: output of '${ARGS}' differs from ${GOLDEN} "
    "(diff ${OUTPUT} against it)")
endif()
