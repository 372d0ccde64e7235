# Pipe NDJSON requests through `isomap_serve serve`: a line over the 64 KiB
# request cap (otherwise a valid request), then bad "levels" entries
# (fractional, negative, huge, == num_levels, non-numeric). Each must be
# refused, and the valid request after them served. Invoked by ctest (see
# tests/CMakeLists.txt) with -DSERVE, -DSCENARIO and -DOUT_DIR.

set(requests "${OUT_DIR}/serve_levels_smoke.ndjson")
string(REPEAT "0," 40000 padding)
file(WRITE "${requests}"
  "{\"deployment\":\"harbor\",\"levels\":[${padding}0]}\n"
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
string(PREPEND refused "{\"error\":\"request line too long\"}\n")
string(LENGTH "${refused}" n)
string(SUBSTRING "${out}" 0 ${n} head)
string(SUBSTRING "${out}" ${n} -1 tail)
if(NOT head STREQUAL refused OR
   NOT tail MATCHES "^{\"cache_hit\":(true|false),\"response\":{[^\n]*\n$")
  message(FATAL_ERROR "expected 6 refusals, then 1 response:\n${out}")
endif()
message(STATUS "serve_levels_smoke OK")
