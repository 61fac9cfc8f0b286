# End-to-end observability: rank_tool --trace + --metrics must emit a
# Chrome trace-event document whose events cover the thread pool, the batch
# engine, and at least one access engine, with nothing dropped or
# overwritten. --threads 3 forces the pool's non-serial path (single-core
# CI would otherwise run everything inline and emit no
# threadpool.parallel_for spans).
execute_process(COMMAND ${RANK_TOOL} gen 12 5 0.6 4
                OUTPUT_FILE ${WORK_DIR}/trace_voters.txt RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gen failed")
endif()
execute_process(COMMAND ${RANK_TOOL} --threads 3
                  --trace=${WORK_DIR}/trace.json --metrics
                  agg ${WORK_DIR}/trace_voters.txt 3
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "median full ranking")
  message(FATAL_ERROR "traced agg failed: ${out}")
endif()
# --metrics prints the counter snapshot after the command output.
if(NOT out MATCHES "\"counters\"" OR NOT out MATCHES "access.medrank.runs")
  message(FATAL_ERROR "--metrics output missing counters: ${out}")
endif()
file(READ ${WORK_DIR}/trace.json trace)
if(NOT trace MATCHES "\"traceEvents\": \\[")
  message(FATAL_ERROR "trace is not a trace-event document: ${trace}")
endif()
foreach(event_name
        "threadpool.parallel_for" "batch.distances_to_all"
        "access.medrank.run")
  if(NOT trace MATCHES "\"ph\": \"X\"[^}]*\"name\": \"${event_name}\"")
    message(FATAL_ERROR "trace missing span '${event_name}': ${trace}")
  endif()
endforeach()
if(NOT trace MATCHES "\"dropped\": 0," OR
   NOT trace MATCHES "\"overwritten\": 0}")
  message(FATAL_ERROR "trace reports lost events: ${trace}")
endif()
# A bad trace path must fail cleanly, not crash.
execute_process(COMMAND ${RANK_TOOL} --trace=/nonexistent_dir/trace.json
                  agg ${WORK_DIR}/trace_voters.txt
                RESULT_VARIABLE rc ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--trace to an unwritable path should fail")
endif()
