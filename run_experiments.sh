#!/bin/sh
# Run the full experiment suite (E1-E10, E12-E18). Pass --quick for smaller sweeps.
# Each binary also writes machine-readable metrics JSON (counters +
# latency histograms per sweep point) to $FGL_METRICS_DIR (default
# ./metrics).
set -e
FGL_METRICS_DIR="${FGL_METRICS_DIR:-metrics}"
export FGL_METRICS_DIR
mkdir -p "$FGL_METRICS_DIR"
for exp in e1_logging_scalability e2_lock_granularity e3_merge_vs_token \
           e4_client_recovery e5_server_recovery e6_checkpoints \
           e7_log_space e8_crash_matrix e9_commit_latency e10_adaptive_traffic \
           e12_callback_batching e13_client_scaling e14_recovery_shootout \
           e15_trace_attribution e16_memory_cliff e17_wire_overhead \
           e18_multi_server_scaleout; do
  cargo run --release -q -p fgl-bench --bin "$exp" -- "$@"
  echo
done
echo "metrics JSON in $FGL_METRICS_DIR/"
