#!/bin/sh
# `ksrsim kernel` and `ksrsim submit` build the same serve::JobSpec from the
# same flags, so a daemon must dispatch exactly as many events as the local
# run for every case below (docs/SERVING.md). Starts a daemon in a fresh
# directory under the current one and shuts it down at the end.
#
#   usage: ksrsim_submit_parity.sh path/to/ksrsim
set -u
KSRSIM=$1
DIR=ksrsim_submit_parity.d
rm -rf "$DIR" && mkdir -p "$DIR" && cd "$DIR" || exit 1

"$KSRSIM" serve --socket parity.sock --jobs 1 2> serve.log &
PID=$!
trap 'kill "$PID" 2> /dev/null' EXIT
for _ in $(seq 100); do
  [ -S parity.sock ] && break
  sleep 0.1
done
[ -S parity.sock ] || { cat serve.log; exit 1; }

status=0
check() {
  ran=$("$KSRSIM" kernel "$@" 2>&1 > /dev/null |
        sed -n 's/.*events_dispatched=\([0-9]*\).*/\1/p')
  served=$("$KSRSIM" submit --socket parity.sock "$@" |
           sed -n 's/.*"events_dispatched":\([0-9]*\).*/\1/p')
  if [ -n "$ran" ] && [ "$ran" = "$served" ]; then
    echo "ok   events=$ran: $*"
  else
    echo "FAIL kernel=$ran submit=$served: $*"
    status=1
  fi
}

check --name ep --procs 4 --log2-pairs 10
check --name cg --procs 4 --n 300 --nnz-per-row 7 --iters 2 --scale 64
check --name is --procs 4 --log2-keys 11 --log2-buckets 7 --scale 64
check --name bt --procs 4 --n 6 --iters 1 --scale 64
check --name sp --procs 4 --n 8 --iters 1 --scale 64
check --name sp --procs 4 --n 8 --iters 1 --scale 64 --no-padding --no-prefetch
check --name is --leaf-rings 2 --cells-per-leaf 4 --procs 64 --log2-keys 10 \
      --log2-buckets 6 --scale 64
check --name cg --procs 4 --n 300 --nnz-per-row 7 --iters 2 --scale 64 \
      --seed 77
check --name is --procs 4 --log2-keys 11 --log2-buckets 7 --scale 64 --seed 77

"$KSRSIM" submit --socket parity.sock --op shutdown > /dev/null
wait "$PID" || status=1
exit $status
