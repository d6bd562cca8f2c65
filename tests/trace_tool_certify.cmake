# trace_tool --certify replays JSONL event traces only.  A --jobs flag is a
# usage error (exit 2); a Chrome export and malformed replays (a non-integer
# job id, a NaN time, a negative volume) are errors (exit 1); the golden
# event trace certifies (exit 0).  Run as
#   cmake -DTRACE_TOOL=<trace_tool> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch dir> -P trace_tool_certify.cmake
set(events "${GOLDEN_DIR}/events_golden.jsonl")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(huge_job "${WORK_DIR}/certify_huge_job.jsonl")
file(WRITE "${huge_job}"
     "{\"kind\":\"job_release\",\"t\":0,\"job\":1e300,\"value\":1,\"aux\":1}\n")
set(nan_time "${WORK_DIR}/certify_nan_time.jsonl")
file(WRITE "${nan_time}"
     "{\"kind\":\"job_release\",\"t\":\"nan\",\"job\":0,\"value\":1,\"aux\":1}\n"
     "{\"kind\":\"job_complete\",\"t\":\"nan\",\"job\":0,\"value\":1,\"aux\":1}\n")
set(negative_volume "${WORK_DIR}/certify_negative_volume.jsonl")
file(WRITE "${negative_volume}"
     "{\"kind\":\"job_release\",\"t\":0,\"job\":0,\"value\":-1,\"aux\":1}\n"
     "{\"kind\":\"job_complete\",\"t\":1,\"job\":0,\"value\":1,\"aux\":1}\n")

set(failures "")
foreach(case "2|--certify|${events}|--jobs|4"
             "1|--certify|${GOLDEN_DIR}/chrome_trace_golden.json"
             "1|--certify|${huge_job}"
             "1|--certify|${nan_time}"
             "1|--certify|${negative_volume}"
             "0|--certify|${events}|--alpha|2")
  string(REPLACE "|" ";" args "${case}")
  list(POP_FRONT args expected)
  execute_process(COMMAND ${TRACE_TOOL} ${args} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc STREQUAL expected)
    list(APPEND failures "[${args}] exited '${rc}', expected ${expected}")
  endif()
endforeach()
if(failures)
  string(REPLACE ";[" "\n[" failures "${failures}")
  message(FATAL_ERROR "${failures}")
endif()
