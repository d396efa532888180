# Smoke test for one figure binary, run as
#   cmake -DBIN=<binary> -DPOINTS=<n> -DDIR=<scratch dir> -P figure_smoke.cmake
# 1. At --scale 0.25 --workloads spmv,msort -j 2 --bench-json DIR the
#    binary exits 0 and writes exactly POINTS per-run files.
# 2. With an unwritable --trace path every point fails, and the
#    binary must exit nonzero (skipped when POINTS is 0: nothing runs).
set(args --scale 0.25 --workloads spmv,msort -j 2)

file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${BIN}" ${args} --bench-json "${DIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN}: exit ${rc}, want 0\n${err}")
endif()
file(GLOB dumps "${DIR}/*.json")
list(LENGTH dumps n)
if(NOT n EQUAL POINTS)
    message(FATAL_ERROR "${BIN}: ${n} bench-JSON files, want ${POINTS}")
endif()
file(REMOVE_RECURSE "${DIR}")

if(POINTS GREATER 0)
    execute_process(COMMAND "${BIN}" ${args}
                            --trace /nonexistent-dir/trace.json
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(rc EQUAL 0)
        message(FATAL_ERROR "${BIN}: exit 0 with every point failing")
    endif()
endif()
