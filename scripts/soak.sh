#!/usr/bin/env bash
# soak.sh — build streamadd and streamload, soak a live server with the
# deterministic abrupt-drift scenario, and grade the run against SLOs.
#
#   scripts/soak.sh smoke   # CI gate: 64 streams, ~2s of traffic, hard
#                           # SLOs (zero 5xx, zero shed, zero errors,
#                           # p99 < 750ms)
#   scripts/soak.sh full    # make bench-soak: 64 streams x 50 vec/s for
#                           # 30s under the same SLOs
#   scripts/soak.sh cascade # CI gate: the smoke soak against a server
#                           # running cascade(zscore, knn); recall must
#                           # hold the plain-knn gate and /metrics must
#                           # show every stream's admission rate < 50%
#   scripts/soak.sh shed    # CI gate: overdrive a server running the
#                           # shed overload policy with a tiny queue;
#                           # sheds must be reported inline (zero 5xx,
#                           # zero errors) and /metrics must show a
#                           # non-zero shed counter
#   scripts/soak.sh drop    # CI gate: the same overdrive against the
#                           # drop-oldest policy; drops must surface as
#                           # inline dropped results (zero 5xx, zero
#                           # errors, zero sheds) and /metrics must show
#                           # a non-zero dropped counter
#
# The server runs a real streamadd (arima, 4 channels, block overload
# policy) on a loopback port; it is killed on exit. Every mode prints
# its report and keeps nothing: binaries, logs and the report file live
# in a temp dir that is removed on exit. streamload's exit code
# propagates: 0 all SLOs met, 1 SLO violation, 2 harness error.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE="${1:-smoke}"
ADDR="${SOAK_ADDR:-127.0.0.1:18417}"

command -v curl >/dev/null 2>&1 || { echo "soak.sh: curl is required for the readiness probe" >&2; exit 2; }

BIN="$(mktemp -d)"
SRV_PID=""
cleanup() {
    if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
        kill "$SRV_PID" 2>/dev/null || true
        wait "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/streamadd" ./cmd/streamadd
go build -o "$BIN/streamload" ./cmd/streamload

# Small kNN pipeline (w=8, m=32) so 64 fresh streams warm up within the
# soak's warmup window. kNN scores the current vector directly, so alerts
# line up with the generator's per-record labels (windowed models smear a
# spike across the following w scores and ruin point recall). The alert
# quantile is set against the scenario's 2% contamination; fixed seed so
# the detection section of the report is reproducible run to run. In
# cascade mode the same kNN rides behind the tier-0 zscore screen: the
# gate window and calibration are sized so screening engages inside the
# smoke soak's 240-vector budget.
SPEC_ARGS=(-model knn)
if [ "$MODE" = cascade ]; then
    SPEC_ARGS=(-spec 'cascade(zscore, knn; admit=0.1, calib=64, gatewin=32)')
elif [ "$MODE" = shed ]; then
    # A queue this small under the overdriven send rate below guarantees
    # the shed policy actually engages; the gates then prove sheds stay
    # inline 429-style results instead of surfacing as 5xx or errors.
    SPEC_ARGS=(-model knn -queue-depth 4 -overload shed)
elif [ "$MODE" = drop ]; then
    SPEC_ARGS=(-model knn -queue-depth 4 -overload drop-oldest)
fi
"$BIN/streamadd" -addr "$ADDR" -channels 4 "${SPEC_ARGS[@]}" -w 8 -m 32 -seed 1 \
    -alert-quantile 0.98 >"$BIN/streamadd.log" 2>&1 &
SRV_PID=$!

ready=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    if ! kill -0 "$SRV_PID" 2>/dev/null; then
        echo "soak.sh: streamadd exited during startup:" >&2
        cat "$BIN/streamadd.log" >&2
        exit 2
    fi
    sleep 0.1
done
if [ -z "$ready" ]; then
    echo "soak.sh: streamadd never became healthy on $ADDR" >&2
    cat "$BIN/streamadd.log" >&2
    exit 2
fi

case "$MODE" in
smoke)
    "$BIN/streamload" -addr "http://$ADDR" \
        -streams 64 -rate 200 -batch 16 -vectors 240 -warmup 64 -seed 1 \
        -slo-p99 750ms -slo-shed-rate 0 -slo-error-rate 0 -slo-5xx 0 \
        -slo-recall 0.25 \
        -out "$BIN/BENCH_soak.json"
    ;;
full)
    "$BIN/streamload" -addr "http://$ADDR" \
        -streams 64 -rate 50 -batch 16 -duration 30s -warmup 64 -seed 1 \
        -slo-p99 750ms -slo-shed-rate 0 -slo-error-rate 0 -slo-5xx 0 \
        -slo-recall 0.25 \
        -out "$BIN/BENCH_soak.json"
    ;;
cascade)
    "$BIN/streamload" -addr "http://$ADDR" \
        -streams 64 -rate 200 -batch 16 -vectors 240 -warmup 64 -seed 1 \
        -slo-p99 750ms -slo-shed-rate 0 -slo-error-rate 0 -slo-5xx 0 \
        -slo-recall 0.25 \
        -out "$BIN/BENCH_soak.json"
    # The soak passed its SLOs; now assert the screen actually engaged:
    # every stream must be screening with an admission rate under 50%.
    curl -fsS "http://$ADDR/metrics" | awk '
        /^streamad_cascade_admission_rate\{/ { n++; if ($2 >= 0.5) { print "soak.sh: " $0 " — admission rate >= 0.5"; bad = 1 } }
        /^streamad_cascade_screening\{/      { if ($2 != 1) { print "soak.sh: " $0 " — screening never engaged"; bad = 1 } }
        END {
            if (n == 0) { print "soak.sh: no streamad_cascade_admission_rate series in /metrics"; bad = 1 }
            exit bad
        }' >&2
    ;;
shed)
    # Overdrive: 32-record batches against a 4-deep queue force the shed
    # path on nearly every request. No recall gate — shedding on purpose
    # trims the evaluated set — but sheds must never become 5xx or
    # per-record errors, and latency must hold (shedding is cheap).
    "$BIN/streamload" -addr "http://$ADDR" \
        -streams 32 -rate 400 -batch 32 -vectors 320 -warmup 64 -seed 1 \
        -slo-p99 750ms -slo-error-rate 0 -slo-5xx 0 \
        -out "$BIN/BENCH_soak.json"
    # The SLOs passed; now assert the overload policy actually engaged.
    curl -fsS "http://$ADDR/metrics" | awk '
        /^streamad_ingest_shed_total\{/ {
            n++; if ($2 + 0 == 0) { print "soak.sh: " $0 " — shed policy never engaged"; bad = 1 }
        }
        END {
            if (n == 0) { print "soak.sh: no streamad_ingest_shed_total series in /metrics"; bad = 1 }
            exit bad
        }' >&2
    ;;
drop)
    # Overdrive against drop-oldest: the newest vector always gets in by
    # discarding the oldest queued one. Unlike shed, nothing bounces back
    # to the producer — a drop surfaces as an inline dropped result on
    # the vector that was displaced — so sheds must be exactly zero while
    # the dropped counter moves.
    "$BIN/streamload" -addr "http://$ADDR" \
        -streams 32 -rate 400 -batch 32 -vectors 320 -warmup 64 -seed 1 \
        -slo-p99 750ms -slo-shed-rate 0 -slo-error-rate 0 -slo-5xx 0 \
        -out "$BIN/BENCH_soak.json"
    # The SLOs passed; now assert the overload policy actually engaged.
    curl -fsS "http://$ADDR/metrics" | awk '
        /^streamad_ingest_dropped_total\{/ {
            n++; if ($2 + 0 == 0) { print "soak.sh: " $0 " — drop-oldest policy never engaged"; bad = 1 }
        }
        END {
            if (n == 0) { print "soak.sh: no streamad_ingest_dropped_total series in /metrics"; bad = 1 }
            exit bad
        }' >&2
    ;;
*)
    echo "usage: scripts/soak.sh [smoke|full|cascade|shed|drop]" >&2
    exit 2
    ;;
esac
