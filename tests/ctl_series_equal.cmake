# Runs `CTL run --config CONFIG --epochs 2` and fails unless the registry
# series LHS and RHS print the same nonzero value in its report.
#
#   cmake -DCTL=monarchctl -DCONFIG=F.ini -DLHS=series -DRHS=series \
#         -P ctl_series_equal.cmake
execute_process(COMMAND ${CTL} run --config ${CONFIG} --epochs 2
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "monarchctl run exited ${rc}")
endif()
foreach(side LHS RHS)
  string(REPLACE "." "\\." pattern "${${side}}")
  string(REGEX MATCH "\n${pattern} [a-z]+ ([0-9]+) " line "\n${out}")
  if(NOT line)
    message(FATAL_ERROR "series ${${side}} not in the report")
  endif()
  set(${side}_value ${CMAKE_MATCH_1})
endforeach()
message(STATUS "${LHS}=${LHS_value} ${RHS}=${RHS_value}")
if(LHS_value EQUAL 0 OR NOT LHS_value EQUAL RHS_value)
  message(FATAL_ERROR "${LHS}=${LHS_value} ${RHS}=${RHS_value}")
endif()
