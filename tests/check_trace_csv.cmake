# Regenerate the message-trace CSV of the case named in the golden file
# and compare its row count and SHA-256 with the checked-in values.
#
#   cmake -DNOWLAB=path/to/nowlab -DGOLDEN=tests/golden/trace_csv.txt
#         -DOUT=scratch.csv -P tests/check_trace_csv.cmake

execute_process(
  COMMAND ${NOWLAB} run em3d-write --procs 4 --scale 0.1 --trace ${OUT}
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nowlab run --trace failed (${rc})")
endif()

file(STRINGS ${GOLDEN} golden_rows REGEX "^rows ")
file(STRINGS ${GOLDEN} golden_sha REGEX "^sha256 ")
string(REGEX REPLACE "^rows " "" golden_rows "${golden_rows}")
string(REGEX REPLACE "^sha256 " "" golden_sha "${golden_sha}")

file(STRINGS ${OUT} lines)
list(LENGTH lines nlines)
math(EXPR rows "${nlines} - 1")
file(SHA256 ${OUT} sha)

if(NOT rows EQUAL golden_rows OR NOT sha STREQUAL golden_sha)
  message(FATAL_ERROR
    "trace CSV drifted from ${GOLDEN}:\n"
    "  rows   ${rows} (golden ${golden_rows})\n"
    "  sha256 ${sha}\n"
    "  golden ${golden_sha}")
endif()
message(STATUS "trace CSV matches: ${rows} rows, sha256 ${sha}")
