# Fails when code under src/ compares a string against an op name outside op
# registration and serialization. What an op is (fusable, its cost class, a
# function call, a graph argument, ...) is an OpDef trait set where the op is
# registered; readers consult the `const OpDef*` they already hold instead of
# re-deriving it from the name.
#
# Op names are CamelCase ("MatMul", "Arg", "Conv2D"); a compared literal that
# starts upper-case and has a lower-case letter is taken as one. Attr values
# ("SAME", "VALID"), device kinds ("CPU") and lower-case tokens do not match.
#
#   cmake -DSRC_DIR=<repo>/src -P scripts/lint_op_names.cmake
#
# Registered as the `lint.op_names_confined` CTest.
cmake_minimum_required(VERSION 3.16)

if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<repo>/src -P lint_op_names.cmake")
endif()

set(allowed
    ops/op_defs.cpp
    ops/op_registry.cpp
    graph/serialization.cpp)

set(op_literal "\"[A-Z][A-Za-z0-9_]*[a-z][A-Za-z0-9_]*\"")
set(compare "(==|!=)[ \t\r\n]*${op_literal}|${op_literal}[ \t\r\n]*(==|!=)")

file(GLOB_RECURSE sources RELATIVE "${SRC_DIR}" "${SRC_DIR}/*.h"
     "${SRC_DIR}/*.cpp")
list(SORT sources)
set(offenders "")
set(count 0)
foreach(source IN LISTS sources)
  if(source IN_LIST allowed)
    continue()
  endif()
  file(READ "${SRC_DIR}/${source}" content)
  string(REGEX MATCHALL "${compare}" hits "${content}")
  foreach(hit IN LISTS hits)
    string(REGEX REPLACE "[ \t\r\n]+" " " hit "${hit}")
    list(APPEND offenders "${source}: ${hit}")
    math(EXPR count "${count} + 1")
  endforeach()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
          "${count} op-name compare(s) outside registration and "
          "serialization; read an OpDef trait instead:\n  ${listing}")
endif()
message(STATUS "op-name compares confined to: ${allowed}")
