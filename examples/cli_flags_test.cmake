# CTest script: the shared util::run_main path of benches and examples.
# For the bench BENCH and the example EXAMPLE, --help must
# print the usage and exit 0, and an unknown flag must print the error plus
# the --help hint and exit 1 — an uncaught util::Error would abort (134).
foreach(prog ${BENCH} ${EXAMPLE})
  execute_process(COMMAND ${prog} --help
                  RESULT_VARIABLE help_rc OUTPUT_VARIABLE help_out
                  ERROR_VARIABLE help_err)
  if(NOT help_rc STREQUAL "0")
    message(FATAL_ERROR "${prog} --help exited with '${help_rc}', want 0\n"
                        "${help_err}")
  endif()
  if(NOT help_out MATCHES "usage: " OR NOT help_out MATCHES "--help")
    message(FATAL_ERROR "${prog} --help printed no usage:\n${help_out}")
  endif()

  execute_process(COMMAND ${prog} --bogus=1
                  RESULT_VARIABLE bogus_rc OUTPUT_VARIABLE bogus_out
                  ERROR_VARIABLE bogus_err)
  if(NOT bogus_rc STREQUAL "1")
    message(FATAL_ERROR "${prog} --bogus=1 exited with '${bogus_rc}', "
                        "want 1 (not an abort)\n${bogus_err}")
  endif()
  if(NOT bogus_err MATCHES "unknown flag --bogus" OR
     NOT bogus_err MATCHES "run with --help for usage")
    message(FATAL_ERROR "${prog} --bogus=1 stderr lacks the error or the "
                        "--help hint:\n${bogus_err}")
  endif()
endforeach()
