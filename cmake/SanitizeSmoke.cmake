# SanitizeSmoke.cmake — script mode (cmake -P) driver for the
# asan_ubsan_smoke ctest. Configures a nested build tree with
# DTB_SANITIZE=address,undefined, builds the robustness-critical test
# binaries (chaos mutator, OOM degradation ladder, trace fuzzing, and the
# copying collector, whose bump blocks are freed whole), and runs them
# with sanitizer halting enabled, so memory or UB bugs on the degradation
# paths, or a block freed while in use or leaked, fail the smoke test
# even when the uninstrumented suite passes.
#
# Usage: cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<scratch> -P SanitizeSmoke.cmake

if(NOT SOURCE_DIR OR NOT BUILD_DIR)
  message(FATAL_ERROR
    "usage: cmake -DSOURCE_DIR=<repo> -DBUILD_DIR=<scratch> -P SanitizeSmoke.cmake")
endif()

set(smokeTargets
  runtime_chaos_test
  runtime_copying_test
  runtime_oom_ladder_test
  trace_io_fuzz_test
  support_faultinjector_test)

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DDTB_SANITIZE=address,undefined
  RESULT_VARIABLE configureResult)
if(NOT configureResult EQUAL 0)
  message(FATAL_ERROR "sanitize smoke: configure failed (${configureResult})")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --target ${smokeTargets}
  RESULT_VARIABLE buildResult)
if(NOT buildResult EQUAL 0)
  message(FATAL_ERROR "sanitize smoke: build failed (${buildResult})")
endif()

foreach(target IN LISTS smokeTargets)
  message(STATUS "sanitize smoke: running ${target}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      ASAN_OPTIONS=halt_on_error=1
      UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
      ${BUILD_DIR}/tests/${target}
    RESULT_VARIABLE runResult)
  if(NOT runResult EQUAL 0)
    message(FATAL_ERROR "sanitize smoke: ${target} failed (${runResult})")
  endif()
endforeach()

message(STATUS "sanitize smoke: all targets clean under address,undefined")
