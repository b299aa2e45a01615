#!/bin/sh
# CI gate for cmd/serve: start the server on a free port, submit the
# checked-in fig1 spec as a job, poll it to done, and require the HTTP
# report artifact to be byte-identical to what cmd/figures -spec writes
# for the same spec. A second submission of the same spec must replay
# entirely from the shared result store (zero computed cells), and a
# SIGTERM must drain the server to a clean exit 0.
#
# A spec naming a server file as its workload input must be refused
# with 400 before it is queued: a job never reads a server file.
#
# A second phase restarts the server with -concurrency 4 on a fresh
# cache directory and submits four distinct specs at once: every
# artifact must still match the CLI bytes, and /metrics must show the
# jobs actually overlapped (jobs_running_peak >= 2) and export latency
# quantiles.
#
# A third phase checks that a manifest does not depend on what its
# process ran before: one server runs E8 and then E2, and cmd/reproduce
# must accept the served E2 manifest, re-running it in a fresh process.
#
# Usage: scripts/check_serve.sh
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

commit=$(sh "$root/scripts/version.sh")
bin="$work/bin"
mkdir -p "$bin"
(cd "$root" && go build -ldflags "-X pargraph/internal/cmdutil.Commit=$commit" -o "$bin" ./cmd/figures ./cmd/serve ./cmd/reproduce)

spec="$root/specs/e1_fig1.toml"
cache="$work/cache"
fail=0

# field <file> <key>: pull a scalar string/number field out of one of
# the server's JSON responses (they are indented one key per line).
field() { sed -n 's/^ *"'"$2"'": "\{0,1\}\([^",]*\)"\{0,1\},\{0,1\}$/\1/p' "$1" | head -n 1; }

# Reference bytes through the CLI path. The spec writes its report and
# manifest relative to the working directory.
mkdir -p "$work/cli"
(cd "$work/cli" && "$bin/figures" -spec "$spec" -cache-dir "$work/clicache" >/dev/null 2>&1)
[ -f "$work/cli/e1_fig1.json" ] || { echo "FAIL: CLI reference run wrote no report"; exit 1; }

# start_server <log> <serve flags...>: start a server in the background,
# wait for the port it announces on stderr, and set server_pid and base.
start_server() {
    log=$1
    shift
    "$bin/serve" -addr localhost:0 "$@" 2>"$log" &
    server_pid=$!
    port=""
    for _ in $(seq 50); do
        port=$(sed -n 's#.*listening on http://[^:]*:\([0-9]*\)$#\1#p' "$log")
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || { echo "FAIL: server never announced its port"; cat "$log"; exit 1; }
    base="http://localhost:$port"
}

# stop_server <name> <log>: SIGTERM the server, which must drain to
# exit 0.
stop_server() {
    kill -TERM "$server_pid"
    rc=0
    wait "$server_pid" || rc=$?
    server_pid=""
    if [ "$rc" = 0 ]; then
        echo "ok: SIGTERM drained the $1 server to a clean exit"
    else
        echo "FAIL: $1 server exited $rc on SIGTERM"
        cat "$2"
        fail=1
    fi
}

start_server "$work/server.log" -cache-dir "$cache"

# submit <specfile> <out>: POST the spec, print the job id.
submit() {
    curl -sS --fail-with-body --data-binary @"$1" "$base/jobs" >"$2" || {
        echo "FAIL: job submission rejected:"; cat "$2"; exit 1; }
    field "$2" id
}

# poll <id> <out>: wait for the job to leave pending/running.
poll() {
    for _ in $(seq 300); do
        curl -sS "$base/jobs/$1" >"$2"
        case $(field "$2" state) in
        done) return 0 ;;
        failed) echo "FAIL: job $1 failed: $(field "$2" error)"; return 1 ;;
        esac
        sleep 0.2
    done
    echo "FAIL: job $1 never finished"
    return 1
}

id=$(submit "$spec" "$work/submit1.json")
poll "$id" "$work/job1.json" || fail=1

if [ "$fail" = 0 ]; then
    curl -sS "$base/jobs/$id/artifacts/report" >"$work/http_report.json"
    if cmp -s "$work/http_report.json" "$work/cli/e1_fig1.json"; then
        echo "ok: HTTP report byte-identical to the CLI run"
    else
        echo "FAIL: HTTP report differs from CLI bytes"
        fail=1
    fi
    computed=$(sed -n '/"cells"/,/}/s/^ *"computed": \([0-9]*\).*/\1/p' "$work/job1.json")
    if [ -z "$computed" ] || [ "$computed" = 0 ]; then
        echo "FAIL: first job should have computed cells, got '${computed:-none}'"
        fail=1
    fi
fi

# Second submission: pure cache replay — zero re-simulated cells, same
# report bytes.
id2=$(submit "$spec" "$work/submit2.json")
poll "$id2" "$work/job2.json" || fail=1
if [ "$fail" = 0 ]; then
    computed2=$(sed -n '/"cells"/,/}/s/^ *"computed": \([0-9]*\).*/\1/p' "$work/job2.json")
    if [ "$computed2" = 0 ]; then
        echo "ok: repeated job replayed every cell from the cache"
    else
        echo "FAIL: repeated job re-simulated $computed2 cells, want 0"
        fail=1
    fi
    curl -sS "$base/jobs/$id2/artifacts/report" >"$work/http_report2.json"
    cmp -s "$work/http_report2.json" "$work/cli/e1_fig1.json" || {
        echo "FAIL: repeated job's report differs from CLI bytes"; fail=1; }
fi

# A job must not read a server file: a spec naming one as its workload
# input is refused at submission.
printf '[run]\ncommand = "concomp"\n[workload]\ninput = "/etc/passwd"\n' >"$work/server_file.toml"
code=$(curl -sS -o "$work/server_file.out" -w '%{http_code}' --data-binary @"$work/server_file.toml" "$base/jobs")
if [ "$code" = 400 ]; then
    echo "ok: a spec naming a server file as input is refused (400)"
else
    echo "FAIL: a spec naming a server file as input got $code, want 400:"
    cat "$work/server_file.out"
    fail=1
fi

# Metrics should reflect the two jobs.
curl -sS "$base/metrics" >"$work/metrics.txt"
grep -q '^jobs_done 2$' "$work/metrics.txt" || {
    echo "FAIL: metrics do not report 2 done jobs:"; cat "$work/metrics.txt"; fail=1; }

# Graceful shutdown: SIGTERM must drain to exit 0.
stop_server first "$work/server.log"

# --- Concurrent phase: 4 distinct specs against -concurrency 4 -------
# Each spec gets a CLI reference run first (shared CLI cache — only the
# bytes matter), then all four are submitted back to back against a
# fresh, cold server cache so the jobs genuinely overlap.
conc_specs="e1_fig1 e2_fig2 e5_saturation e6_streams"
for name in $conc_specs; do
    [ -f "$work/cli/$name.json" ] && continue
    (cd "$work/cli" && "$bin/figures" -spec "$root/specs/$name.toml" -cache-dir "$work/clicache" >/dev/null 2>&1)
    [ -f "$work/cli/$name.json" ] || { echo "FAIL: CLI reference run for $name wrote no report"; exit 1; }
done

start_server "$work/server_conc.log" -cache-dir "$work/cache_conc" -concurrency 4

ids=""
for name in $conc_specs; do
    ids="$ids $(submit "$root/specs/$name.toml" "$work/submit_$name.json")"
done

set -- $conc_specs
for id in $ids; do
    name=$1; shift
    poll "$id" "$work/job_$name.json" || fail=1
    if [ "$fail" = 0 ]; then
        curl -sS "$base/jobs/$id/artifacts/report" >"$work/http_$name.json"
        if cmp -s "$work/http_$name.json" "$work/cli/$name.json"; then
            echo "ok: concurrent $name report byte-identical to the CLI run"
        else
            echo "FAIL: concurrent $name report differs from CLI bytes"
            fail=1
        fi
    fi
done

curl -sS "$base/metrics" >"$work/metrics_conc.txt"
grep -q '^jobs_done 4$' "$work/metrics_conc.txt" || {
    echo "FAIL: concurrent metrics do not report 4 done jobs:"; cat "$work/metrics_conc.txt"; fail=1; }
peak=$(sed -n 's/^jobs_running_peak \([0-9]*\)$/\1/p' "$work/metrics_conc.txt")
if [ -n "$peak" ] && [ "$peak" -ge 2 ]; then
    echo "ok: jobs overlapped (jobs_running_peak=$peak)"
else
    echo "FAIL: jobs never overlapped (jobs_running_peak='${peak:-missing}')"
    fail=1
fi
for metric in 'job_seconds{quantile="0.95"}' 'cell_seconds{quantile="0.95"}'; do
    grep -qF "$metric" "$work/metrics_conc.txt" || {
        echo "FAIL: /metrics is missing $metric"; fail=1; }
done

stop_server concurrent "$work/server_conc.log"

# --- Process history: E8, then E2, on one server ---------------------
# gob numbers the types it encodes in first-use order per process, so
# an input cached through gob could digest differently after another
# experiment ran in the same process. The served E2 manifest must still
# reproduce in a fresh process.
start_server "$work/server_hist.log" -cache-dir "$work/cache_hist"
for name in e8_coloring e2_fig2; do
    id=$(submit "$root/specs/$name.toml" "$work/submit_hist_$name.json")
    poll "$id" "$work/job_hist_$name.json" || fail=1
done
mkdir -p "$work/hist"
curl -sS "$base/jobs/$id/artifacts/report" >"$work/hist/e2_fig2.json"
curl -sS "$base/jobs/$id/artifacts/manifest" >"$work/hist/e2_fig2.manifest.json"
if "$bin/reproduce" "$work/hist/e2_fig2.manifest.json" >"$work/hist/reproduce.log" 2>&1; then
    echo "ok: E2 served after E8 reproduces in a fresh process"
else
    echo "FAIL: cmd/reproduce rejected the E2 manifest served after E8:"
    cat "$work/hist/reproduce.log"
    fail=1
fi
stop_server history "$work/server_hist.log"

exit $fail
