# Runs one CLI case and checks its exit status and its output:
#
#   cmake -DEXPECT_EXIT=N -DEXPECT_REGEX=RE -P cli_expect.cmake -- PROG ARGS...
#
# Fails when PROG exits with a status other than N, or when its stdout and
# stderr together do not match RE. (A ctest PASS_REGULAR_EXPRESSION alone
# replaces the exit-status check, so an error that is printed and then
# ignored would pass.)
set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT_EXIT OR NOT DEFINED EXPECT_REGEX)
  message(FATAL_ERROR "usage: cmake -DEXPECT_EXIT=N -DEXPECT_REGEX=RE "
                      "-P cli_expect.cmake -- PROG ARGS...")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE status
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT status STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT_EXIT}")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match: ${EXPECT_REGEX}")
endif()
