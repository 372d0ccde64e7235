# Pipe NDJSON requests with bad "levels" entries (fractional, negative,
# huge, == num_levels, non-numeric) through `isomap_serve serve`: each must
# be refused, and the valid request after them served. Invoked by ctest
# (see tests/CMakeLists.txt) with -DSERVE, -DSCENARIO and -DOUT_DIR.

set(requests "${OUT_DIR}/serve_levels_smoke.ndjson")
file(WRITE "${requests}"
  "{\"deployment\":\"harbor\",\"levels\":[1.9]}\n"
  "{\"deployment\":\"harbor\",\"levels\":[-0.5]}\n"
  "{\"deployment\":\"harbor\",\"levels\":[1e300]}\n"
  "{\"deployment\":\"harbor\",\"levels\":[4]}\n"
  "{\"deployment\":\"harbor\",\"levels\":[0,\"1\"]}\n"
  "{\"deployment\":\"harbor\",\"levels\":[0,2.0]}\n"
  "{\"cmd\":\"tick\"}\n")

execute_process(
  COMMAND "${SERVE}" serve "${SCENARIO}"
  INPUT_FILE "${requests}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "isomap_serve serve exited ${rc}\n${out}${err}")
endif()

string(REPEAT "{\"error\":\"unknown deployment or bad levels\"}\n" 5 refused)
string(LENGTH "${refused}" n)
string(SUBSTRING "${out}" 0 ${n} head)
string(SUBSTRING "${out}" ${n} -1 tail)
if(NOT head STREQUAL refused OR
   NOT tail MATCHES "^{\"cache_hit\":(true|false),\"response\":{[^\n]*\n$")
  message(FATAL_ERROR "expected 5 refusals, then 1 response:\n${out}")
endif()
message(STATUS "serve_levels_smoke OK")
