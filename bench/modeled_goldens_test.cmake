# CTest script: rerun every modeled bench and require its stdout to match the
# committed table in experiments_output/ byte for byte. Modeled numbers come
# from the cost model, so they do not depend on the host, the SIMD tier or
# the thread count; any change to them must be deliberate and regenerated in
# the same change (scripts/run_experiments.sh).
#
# bench_online_sgd and bench_optimizers are left out: they print wall-clock
# columns measured on the host, which differ run to run. The one measured
# line of bench_taskgraph_ablation (the pool concurrency the scheduler
# happened to reach) is masked on both sides before comparing.
#
#   cmake -DBENCH_DIR=<dir with bench_*> -DGOLDEN_DIR=<experiments_output>
#         -DOUT_DIR=<scratch dir> -P modeled_goldens_test.cmake
set(benches
    bench_fig7_network_size
    bench_fig8_dataset_size
    bench_fig9_batch_size
    bench_fig10_matlab
    bench_table1_opt_steps
    bench_overlap_ablation
    bench_granularity_ablation
    bench_hybrid_split
    bench_taskgraph_ablation
    bench_thread_tuning
    bench_pca_vs_autoencoder)
set(measured_line "observed pool concurrency during the measured run: [0-9]+")

set(failed "")
foreach(name IN LISTS benches)
  execute_process(COMMAND ${BENCH_DIR}/${name}
                  OUTPUT_VARIABLE actual
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}")
  endif()
  file(READ ${GOLDEN_DIR}/${name}.txt golden)
  string(REGEX REPLACE "${measured_line}" "<measured>" actual_cmp "${actual}")
  string(REGEX REPLACE "${measured_line}" "<measured>" golden_cmp "${golden}")
  if(NOT actual_cmp STREQUAL golden_cmp)
    file(WRITE ${OUT_DIR}/${name}.txt "${actual}")
    list(APPEND failed ${name})
    message(STATUS "${name}: output differs from ${GOLDEN_DIR}/${name}.txt "
                   "(actual in ${OUT_DIR}/${name}.txt)")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "modeled goldens changed: ${failed}")
endif()
