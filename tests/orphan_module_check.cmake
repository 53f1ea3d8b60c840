# Orphan-module check: every header under src/ must be reachable by
# #include from a program that ships — a tool, example, figure bench or
# the perfbench harness — so no library module lives on for its own test
# alone.
#
#   cmake [-DROOT=<source dir>] -P tests/orphan_module_check.cmake
#
# ROOT defaults to the checkout that holds this script.
#
# A header is reached when a file in tools/, examples/, bench/ or
# perfbench/src/ includes it, or when a reached src/ file includes it.
# A reached header makes its own file and its same-stem .cc reached too;
# a header's own .cc therefore never counts as its user. The few src/
# .cc files with no header of their own (the SIMD tables that
# nn/simd.cc dispatches to) cannot be included, so they count as
# reached. The walk runs to a fixpoint; any header left unreached fails
# the check and is named.
cmake_minimum_required(VERSION 3.16)

if(NOT ROOT)
  get_filename_component(ROOT "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
endif()

# Appends the src/-relative headers that `file` includes to `out_var`.
function(quoted_includes file out_var)
  file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"[^\"]+\"")
  set(found "")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*" "\\1"
           inc "${line}")
    list(APPEND found "${inc}")
  endforeach()
  set(${out_var} "${found}" PARENT_SCOPE)
endfunction()

file(GLOB_RECURSE headers RELATIVE "${ROOT}/src" "${ROOT}/src/*.h")
list(SORT headers)

file(GLOB roots
     "${ROOT}/tools/*.cc" "${ROOT}/tools/*.h"
     "${ROOT}/examples/*.cpp" "${ROOT}/examples/*.h"
     "${ROOT}/bench/*.cc" "${ROOT}/bench/*.h"
     "${ROOT}/perfbench/src/*.cc" "${ROOT}/perfbench/src/*.h")
file(GLOB_RECURSE sources "${ROOT}/src/*.cc")
foreach(src IN LISTS sources)
  string(REGEX REPLACE "\\.cc$" ".h" own_header "${src}")
  if(NOT EXISTS "${own_header}")
    list(APPEND roots "${src}")
  endif()
endforeach()

set(reached "")
set(pending "")
foreach(file IN LISTS roots)
  quoted_includes("${file}" incs)
  list(APPEND pending ${incs})
endforeach()

while(pending)
  list(POP_FRONT pending h)
  list(FIND headers "${h}" known)
  list(FIND reached "${h}" seen)
  if(known EQUAL -1 OR NOT seen EQUAL -1)
    continue()
  endif()
  list(APPEND reached "${h}")
  string(REGEX REPLACE "\\.h$" ".cc" own_source "${h}")
  foreach(file "${ROOT}/src/${h}" "${ROOT}/src/${own_source}")
    if(EXISTS "${file}")
      quoted_includes("${file}" incs)
      list(APPEND pending ${incs})
    endif()
  endforeach()
endwhile()

set(orphans "")
foreach(h IN LISTS headers)
  list(FIND reached "${h}" seen)
  if(seen EQUAL -1)
    list(APPEND orphans "${h}")
  endif()
endforeach()

list(LENGTH headers n_headers)
if(orphans)
  list(JOIN orphans "\n  " listing)
  message(FATAL_ERROR
          "headers under src/ that no tool, example, bench or perfbench "
          "reaches (their only users are tests):\n  ${listing}")
endif()
message(STATUS "orphan-module check: all ${n_headers} headers under src/ are reached")
