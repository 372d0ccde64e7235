# Run `isomap_inspect <capsule> --reconcile` on every golden capsule: each
# capsule's per-node telemetry must reconcile with its ledger and report
# counts. Invoked by ctest (see tests/CMakeLists.txt) as:
#   cmake -DINSPECT=... -DGOLDEN_DIR=... -P golden_reconcile.cmake

file(GLOB capsules "${GOLDEN_DIR}/*.capsule")
list(LENGTH capsules count)
if(count EQUAL 0)
  message(FATAL_ERROR "no capsules under ${GOLDEN_DIR}")
endif()

set(failed "")
foreach(capsule IN LISTS capsules)
  execute_process(
    COMMAND "${INSPECT}" "${capsule}" "--reconcile"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(STATUS "${capsule}: isomap_inspect exited ${rc}\n${out}${err}")
    list(APPEND failed "${capsule}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "reconcile failed for: ${failed}")
endif()
message(STATUS "golden_reconcile OK (${count} capsules)")
