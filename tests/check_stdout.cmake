# Run a program and compare its stdout byte for byte with a golden file.
#
#   cmake -DPROGRAM=path/to/binary -DGOLDEN=tests/golden/F.txt
#         -DOUT=scratch.txt -P tests/check_stdout.cmake

execute_process(
  COMMAND ${PROGRAM}
  OUTPUT_FILE ${OUT} ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} failed (${rc}):\n${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  file(READ ${OUT} got)
  message(FATAL_ERROR
    "stdout of ${PROGRAM} drifted from ${GOLDEN} "
    "(diff the two files); got:\n${got}")
endif()
message(STATUS "stdout matches ${GOLDEN}")
