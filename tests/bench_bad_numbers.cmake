# bench_engine_stream and bench_suite_runner must reject a malformed or
# out-of-range numeric flag (or an unknown --dispatch rule) with their usage
# exit code (2) before running anything, and still accept good values.  Every bench_suite_runner case
# carries --list, so an accepted value only prints the suite.  Run as
#   cmake -DENGINE_STREAM=<path> -DSUITE_RUNNER=<path> -P bench_bad_numbers.cmake
set(failures "")
foreach(case "--jobs;10M" "--jobs;abc" "--jobs;0" "--jobs;2.5" "--reps;2x" "--reps;0"
             "--machines;0" "--machines;1e3" "--probe-every;1e3" "--ring-capacity;-5"
             "--rss-ceiling-mb;64mb" "--dispatch;ncpar2" "--dispatch;NCPAR"
             "--dispatch;first-fit")
  execute_process(COMMAND ${ENGINE_STREAM} ${case} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    list(APPEND failures "[bench_engine_stream ${case}] exited '${rc}', expected 2")
  endif()
endforeach()
foreach(case "--jobs;abc" "--jobs;2x" "--jobs;-1" "--jobs;0" "--jobs;1000" "--reps;1.5"
             "--reps;-3")
  execute_process(COMMAND ${SUITE_RUNNER} ${case} --list RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL "2")
    list(APPEND failures "[bench_suite_runner ${case}] exited '${rc}', expected 2")
  endif()
endforeach()
execute_process(COMMAND ${ENGINE_STREAM} --jobs 20000 --reps 1 --probe-every 4096
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
  list(APPEND failures "[bench_engine_stream --jobs 20000] exited '${rc}', expected 0")
endif()
execute_process(COMMAND ${ENGINE_STREAM} --jobs 20000 --machines 4 --dispatch ncpar
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
  list(APPEND failures "[bench_engine_stream --dispatch ncpar] exited '${rc}', expected 0")
endif()
execute_process(COMMAND ${SUITE_RUNNER} --jobs 2 --reps 3 --list
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "0")
  list(APPEND failures "[bench_suite_runner --jobs 2 --reps 3] exited '${rc}', expected 0")
endif()
if(failures)
  string(REPLACE ";[" "\n[" failures "${failures}")
  message(FATAL_ERROR "${failures}")
endif()
