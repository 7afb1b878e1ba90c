#!/bin/sh
# Fig. 11 scale sweep: print `experiments -scale S fig11` under a
# "# scale S" header for each scale S. With no arguments the scales are
# 0.25 0.5 1 2 4 8, which is how docs/fig11-scale-sweep.txt was made;
# pass scales to print only those sections, in the same format.
#
# The output is deterministic, so the committed file is a golden for
# every change on the simulation's hot path:
#
#	scripts/fig11-sweep.sh | diff -u docs/fig11-scale-sweep.txt -
#
# On two cores the whole sweep takes about half a minute, nearly all of
# it at scales 4 and 8; scales up to 2 take a few seconds.
#
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

go build -o "$work/experiments" ./cmd/experiments

[ $# -gt 0 ] || set -- 0.25 0.5 1 2 4 8
for s in "$@"; do
	echo "# scale $s"
	"$work/experiments" -scale "$s" fig11
done
