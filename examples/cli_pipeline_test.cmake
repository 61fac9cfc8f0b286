# End-to-end CLI pipeline: gen -> file -> dist + agg; query over a CSV.
execute_process(COMMAND ${RANK_TOOL} gen 10 4 0.6 4
                OUTPUT_FILE ${WORK_DIR}/voters.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed")
endif()
execute_process(COMMAND ${RANK_TOOL} dist ${WORK_DIR}/voters.txt
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dist failed")
endif()
execute_process(COMMAND ${RANK_TOOL} agg ${WORK_DIR}/voters.txt 3
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "median full ranking")
  message(FATAL_ERROR "agg failed: ${out}")
endif()
file(WRITE ${WORK_DIR}/cat.csv "name,price,stars\na,12,4\nb,9,3\nc,9,5\n")
execute_process(COMMAND ${RANK_TOOL} query ${WORK_DIR}/cat.csv
                "name=cat,price=num,stars=num" "price:asc~5 stars:desc"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "top rows")
  message(FATAL_ERROR "query failed: ${out}")
endif()
# Malformed inputs must fail cleanly.
execute_process(COMMAND ${RANK_TOOL} dist /nonexistent RESULT_VARIABLE rc
                ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "dist on missing file should fail")
endif()
# Bad integer arguments exit 1 with a message; they never abort.
foreach(args "gen;-1;2" "gen;10;x" "agg;${WORK_DIR}/voters.txt;-5")
  execute_process(COMMAND ${RANK_TOOL} ${args} RESULT_VARIABLE rc
                  ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "rank_tool: ")
    message(FATAL_ERROR "'${args}' should exit 1 with a message: ${rc} ${err}")
  endif()
endforeach()
