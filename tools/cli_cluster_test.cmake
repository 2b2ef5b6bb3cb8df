# CTest script: train across simulated cards (--cards 2 --replicas 2) with a
# pinned collective, then validate that the run header carries the cluster
# geometry (cards / interconnect / collective) and that the CLI prints the
# communication report. Exercises the phi::Cluster + collectives path end to
# end through the CLI, not just the unit tests.
execute_process(
  COMMAND ${TRAIN} --model=sae --synthetic=digits --examples=512 --epochs=2
          --hidden=16 --chunk=128 --batch=16 --cards=2 --replicas=2
          --interconnect=pcie-p2p --collective=ring
          --telemetry ${WORK}/cluster_run.jsonl
  OUTPUT_VARIABLE train_out
  RESULT_VARIABLE train_rc)
if(NOT train_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_train --cards=2 --replicas=2 failed: ${train_rc}")
endif()

execute_process(
  COMMAND ${CHECK} --jsonl --require=record --require=seq
          --expect=deepphi.telemetry.v1 --expect=run_header
          --expect=run_summary ${WORK}/cluster_run.jsonl
  RESULT_VARIABLE telemetry_rc)
if(NOT telemetry_rc EQUAL 0)
  message(FATAL_ERROR "cluster telemetry JSONL failed validation: ${telemetry_rc}")
endif()

# The run header must record the cluster geometry and collective choice.
file(STRINGS ${WORK}/cluster_run.jsonl header_line LIMIT_COUNT 1)
foreach(key "\"cards\":2" "\"interconnect\":\"pcie-p2p\""
        "\"collective\":\"ring\"" "\"replicas\":2" "\"slots\":4"
        "\"shard_rows\"")
  string(FIND "${header_line}" "${key}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "run header missing ${key}: ${header_line}")
  endif()
endforeach()

# The CLI's final report must include the communication summary.
foreach(needle "cluster: 2 cards" "all-reduces" "communication")
  string(FIND "${train_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "train output missing '${needle}': ${train_out}")
  endif()
endforeach()

# --collective=auto: the run header must still carry the cluster geometry
# and the collective choice.
execute_process(
  COMMAND ${TRAIN} --model=sae --synthetic=digits --examples=512 --epochs=2
          --hidden=16 --chunk=128 --batch=16 --cards=2 --replicas=2
          --collective=auto --telemetry ${WORK}/cluster_auto_run.jsonl
  RESULT_VARIABLE auto_rc)
if(NOT auto_rc EQUAL 0)
  message(FATAL_ERROR "deepphi_train --collective=auto failed: ${auto_rc}")
endif()
execute_process(
  COMMAND ${CHECK} --jsonl --require=record --expect=run_header
          --expect=\"cards\":2 --expect=\"collective\"
          ${WORK}/cluster_auto_run.jsonl
  RESULT_VARIABLE auto_check_rc)
if(NOT auto_check_rc EQUAL 0)
  message(FATAL_ERROR "--collective=auto telemetry failed validation: ${auto_check_rc}")
endif()
