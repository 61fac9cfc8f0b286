# End-to-end CLI pipeline: gen -> file -> dist + agg; golden rank_tool
# output; query over a CSV.
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
# Golden outputs, byte for byte, at one and four lanes. In
# golden/voters_ties.txt elements 2 and 6 share a median score and the top-2
# cut falls between them, so the ascending-id tie-break decides the full
# ranking and the top-2 list; k = 9 exceeds n = 7, so that agg prints the
# full ranking, then exits 1 with a message.
set(VOTERS ${GOLDEN_DIR}/voters_ties.txt)
foreach(threads 1 4)
  foreach(run "agg_k2;0;agg;${VOTERS};2" "dist;0;dist;${VOTERS}"
              "agg_k9;1;agg;${VOTERS};9")
    list(POP_FRONT run name expected_rc)
    execute_process(COMMAND ${RANK_TOOL} --threads ${threads} ${run}
                    OUTPUT_FILE ${WORK_DIR}/${name}.out
                    ERROR_VARIABLE err RESULT_VARIABLE rc)
    set(expected_err "")
    if(EXISTS ${GOLDEN_DIR}/${name}.err)
      file(READ ${GOLDEN_DIR}/${name}.err expected_err)
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORK_DIR}/${name}.out ${GOLDEN_DIR}/${name}.out
                    RESULT_VARIABLE out_differs)
    if(NOT rc EQUAL expected_rc OR out_differs OR
       NOT err STREQUAL expected_err)
      message(FATAL_ERROR "'${run}' at --threads ${threads} exited ${rc}; "
                          "its output differs from golden/${name}.*: ${err}")
    endif()
  endforeach()
endforeach()
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
# Bad numeric arguments exit 1 with a message; they never abort or fall
# back to other output.
foreach(args "gen;-1;2" "gen;10;x" "gen;10;2;abc" "gen;10;2;1.5"
             "gen;10;2;0.5;11" "agg;${WORK_DIR}/voters.txt;-5")
  execute_process(COMMAND ${RANK_TOOL} ${args} RESULT_VARIABLE rc
                  ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "rank_tool: ")
    message(FATAL_ERROR "'${args}' should exit 1 with a message: ${rc} ${err}")
  endif()
endforeach()
