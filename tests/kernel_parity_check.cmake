# Run kernel_parity and diff its stdout against the committed bit
# patterns in kernel_parity_expected.txt. The tool itself checks each
# batch kernel against its scalar oracle; this pins the outputs' bits
# across changes, so a change that moves a kernel and its oracle alike
# (say field_blended) fails here. Invoked by ctest (see
# tests/CMakeLists.txt) with -DPARITY and -DEXPECTED. After a deliberate
# change to a kernel's bits, regenerate the file with
#   ./build/tools/kernel_parity > tests/kernel_parity_expected.txt

execute_process(
  COMMAND "${PARITY}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "kernel_parity exited ${rc}\n${out}${err}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR
    "kernel_parity output differs from ${EXPECTED}\n"
    "expected:\n${expected}\ngot:\n${out}")
endif()
message(STATUS "kernel_parity_pinned OK")
