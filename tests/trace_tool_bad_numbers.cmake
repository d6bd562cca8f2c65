# trace_tool must reject a malformed or out-of-domain --alpha / --speed with
# its usage exit code (2) before running anything, and still accept good
# values.  Run as
#   cmake -DTRACE_TOOL=<path to trace_tool> -P trace_tool_bad_numbers.cmake
set(failures "")
foreach(case "--alpha;abc" "--alpha;2x" "--alpha;1e999" "--alpha;1" "--speed;0"
             "--speed;nan")
  execute_process(COMMAND ${TRACE_TOOL} ${case} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    list(APPEND failures "[${case}] exited '${rc}', expected 2")
  endif()
endforeach()
execute_process(COMMAND ${TRACE_TOOL} --alpha 2.5 --speed 1.5 --algo fixed
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
  list(APPEND failures "[--alpha 2.5 --speed 1.5] exited '${rc}', expected 0")
endif()
if(failures)
  string(REPLACE ";[" "\n[" failures "${failures}")
  message(FATAL_ERROR "${failures}")
endif()
