# Fails when `getenv` appears under src/ outside the three files that own the
# process-level environment reads (TFE_ALLOCATOR, TFE_PROFILE,
# TFE_MIN_LOG_LEVEL). Every other runtime switch is EagerContext state, so a
# new environment knob must not creep back into one module.
#
#   cmake -DSRC_DIR=<repo>/src -P scripts/lint_getenv.cmake
#
# Registered as the `lint.getenv_confined` CTest.
cmake_minimum_required(VERSION 3.16)

if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<repo>/src -P lint_getenv.cmake")
endif()

set(allowed
    tensor/allocator.cpp
    profiler/profiler.cpp
    support/logging.cpp)

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}" "${SRC_DIR}/*")
set(offenders "")
foreach(source IN LISTS sources)
  if(source IN_LIST allowed)
    continue()
  endif()
  file(STRINGS "${SRC_DIR}/${source}" hits REGEX "getenv")
  if(hits)
    list(APPEND offenders "${source}")
  endif()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
          "getenv outside the allowed files; add an EagerContext switch "
          "instead:\n  ${listing}")
endif()
message(STATUS "getenv confined to: ${allowed}")
