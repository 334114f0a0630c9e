#!/usr/bin/env bash
# The console runs of both CI jobs: every command end to end through the
# installed `eebounds` script. Run from any directory: bash .github/console.sh
set -eo pipefail
# A numpy warning fails a console run as it fails pytest (pyproject filterwarnings).
export PYTHONWARNINGS=error::RuntimeWarning
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

eebounds validate
eebounds simulate --kind cone --n 40 80 160 --snr 4 --phi 0.55 --trials 4000 --seed 2
# Tallies do not depend on the worker count: one and two workers print the same.
eebounds simulate --kind bsc --n 24 --k 12 --p 0.05 --t 1 --trials 65536 --seed 3 --workers 1 | tee "$tmp/bsc24-w1.json"
eebounds simulate --kind bsc --n 24 --k 12 --p 0.05 --t 1 --trials 65536 --seed 3 --workers 2 > "$tmp/bsc24-w2.json"
diff "$tmp/bsc24-w1.json" "$tmp/bsc24-w2.json"
# k = 21 and n - k = 24, past the coset table: the streamed popcount walk end to end.
eebounds simulate --kind bsc --n 45 --k 21 --p 0.05 --t 1 --trials 300 --seed 6
# n - k = 127: two parity words per received word, deduplicated and walked.
eebounds simulate --kind bsc --n 130 --k 3 --p 0.35 --t 2 --trials 40000 --seed 1
eebounds simulate --kind awgn --n 16 --M 64 --snr 2 --tau 0.05 --trials 20000 --seed 4 --workers 2
# M = 4096 points of n = 24: the inner products run in column chunks.
eebounds simulate --kind awgn --n 24 --M 4096 --snr 4 --tau 0 --trials 20000 --seed 5 --workers 1
# n = 1024 > M: each block's noise is drawn one row slice at a time, the same
# stream for one and two workers.
eebounds simulate --kind awgn --n 1024 --M 256 --snr 0.02 --tau 0.02 --trials 32768 --seed 7 --workers 1 | tee "$tmp/awgn1024-w1.json"
eebounds simulate --kind awgn --n 1024 --M 256 --snr 0.02 --tau 0.02 --trials 32768 --seed 7 --workers 2 > "$tmp/awgn1024-w2.json"
diff "$tmp/awgn1024-w1.json" "$tmp/awgn1024-w2.json"
# Rejected inputs exit 2: a NaN or infinite margin, and a config value that int() would truncate.
rc=0; eebounds simulate --kind awgn --n 8 --snr 2 --M 16 --tau nan --trials 2000 --seed 1 || rc=$?; test "$rc" -eq 2
rc=0; eebounds simulate --kind awgn --n 8 --snr 2 --M 16 --tau inf --trials 2000 --seed 1 || rc=$?; test "$rc" -eq 2
echo '{"kind": "bsc", "n": 7, "k": 4, "p": 0.05, "t": 1.5, "trials": 1000, "seed": 1}' > "$tmp/t-1.5.json"
rc=0; eebounds simulate "$tmp/t-1.5.json" || rc=$?; test "$rc" -eq 2
# A flag converts as a config value does: the same two inputs fail the same way.
rc=0; eebounds simulate --kind bsc --n 7 --k 4 --p 0.05 --t 1.5 --trials 1000 --seed 1 || rc=$?; test "$rc" -eq 2
rc=0; eebounds simulate --kind qam --n 7 --k 4 --p 0.05 --trials 1000 --seed 1 || rc=$?; test "$rc" -eq 2
# A JSON boolean or list is no number, and a config must be an object.
echo '{"kind": "bsc", "n": 7, "k": 4, "p": true, "trials": 1000, "seed": 1}' > "$tmp/p-true.json"
rc=0; eebounds simulate "$tmp/p-true.json" || rc=$?; test "$rc" -eq 2
echo '{"kind": "bsc", "n": 7, "k": [4], "p": 0.05, "trials": 1000, "seed": 1}' > "$tmp/k-list.json"
rc=0; eebounds simulate "$tmp/k-list.json" || rc=$?; test "$rc" -eq 2
echo '[1, 2]' > "$tmp/array.json"
rc=0; eebounds simulate "$tmp/array.json" --seed 1 || rc=$?; test "$rc" -eq 2
# The bound commands exit 2 on a code length below 1 and on a non-finite real flag.
rc=0; eebounds finite-bound --channel bsc --p 0.07 --n 0 --rate 0.3 || rc=$?; test "$rc" -eq 2
rc=0; eebounds landmarks --channel awgn --snr 4 --tau nan || rc=$?; test "$rc" -eq 2
# A curve of no rate points is a usage error, not an empty table.
rc=0; eebounds curve --channel bsc --p 0.07 --rmin 0.1 --rmax 0.2 --steps 0 || rc=$?; test "$rc" -eq 2
# Every BSC bound exits 2 on a margin tau >= 1/2, bz_e alone too.
rc=0; eebounds curve --channel bsc --p 0.07 --tau 0.6 --rmin 0.1 --rmax 0.2 --steps 2 --bounds bz_e || rc=$?; test "$rc" -eq 2
eebounds landmarks --channel awgn --snr 4 --tau 0.02
eebounds landmarks --channel awgn --snr 4 --tau -0.02
# R* = 2.338 lies above capacity 2.087: the straight regime runs to capacity.
eebounds landmarks --channel awgn --snr 64 --tau 0.1
eebounds curve --channel awgn --snr 2 --tau 0.03 --rmin 0.05 --rmax 0.5 --steps 12
eebounds finite-bound --channel awgn --snr 4 --tau 0.02 --n 256 --rate 0.3 --units nats
eebounds finite-bound --channel awgn --snr 4 --tau 0.02 --n 256 --rate 0.3 --units nats --mode erasure
# The benchmark's AWGN union bounds: the cone-start log(0) guard at n = 1024.
eebounds finite-bound --channel awgn --snr 4 --tau 0.02 --n 1024 --rate 0.275 --units nats
eebounds finite-bound --channel awgn --snr 4 --tau 0.02 --n 1024 --rate 0.275 --units nats --mode erasure
# tau = 0 at high SNR: the decoding radius is theta_s(R), about 0.5254
# (a binary spherical code's rate is at most ln 2 nats).
eebounds finite-bound --channel awgn --snr 10000 --tau 0 --n 256 --rate 0.69 --units nats
# BSC: the trade-off pair over all three regimes, its landmarks
# (entropy_inverse solves) and a finite-n union bound.
eebounds curve --channel bsc --p 0.07 --tau 0.03 --rmin 0.02 --rmax 0.62 --steps 20
eebounds landmarks --channel bsc --p 0.07 --tau 0.03
# M- is invalid at every rate here: its decoding radius lies below p.
eebounds curve --channel bsc --p 0.45 --tau 0.1 --rmin 0.0045 --rmax 0.0072 --steps 2 --bounds gallager,m_minus
# tau = 0: M+ is E0, invalid past capacity 0.634 as gallager is.
eebounds curve --channel bsc --p 0.07 --tau 0 --rmin 0.5 --rmax 0.95 --steps 4 --bounds gallager,m_plus
eebounds finite-bound --channel bsc --p 0.07 --n 1024 --rate 0.3 --t 2
# p near 1/2 at low rate: rows whose CDFs underflow, without a warning.
eebounds finite-bound --channel bsc --p 0.4999 --n 4096 --rate 0.05 --t 7 --mode erasure
eebounds finite-bound --channel bsc --p 0.45 --n 2048 --rate 0.05 --t 7
