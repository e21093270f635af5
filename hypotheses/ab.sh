#!/usr/bin/env bash
# Layer A/B runner: times package benchmarks of the working tree against
# a parent revision in alternating pairs, the protocol of
# hypotheses/README.md applied to one layer's probes.
#
#   bash hypotheses/ab.sh [-n pairs] [-benchtime d] [-cpu list] <parent-rev> <bench-regexp> <pkg>...
#
# <pkg> is a package path relative to the repository root (. or
# ./internal/kcas). Each side gets one test binary per package from
# `go test -c`: the working tree as it is, the parent from a git
# worktree under .bench_build/ab/ (git-ignored, removed on exit). Then
# -n pairs (default 10) run; in each, both sides run every benchmark the
# regexp matches once at the fixed -benchtime (default 1s), and the side
# that goes first alternates from pair to pair. -cpu is passed to both
# binaries as -test.cpu and may not exceed nproc: a benchmark with more
# threads than processors times the scheduler.
#
# Per benchmark it prints both medians (ns/op), the parent's spread
# (distance between its quartiles), the pairs the change won, the
# verdict and the per-pair ratios change/parent. Verdicts:
#   gain        the change is faster in at least 9 pairs of 10 and its
#               median is below the parent's by more than that spread
#   regression  the same, the other way round
#   unresolved  anything else: these pairs cannot tell the sides apart
# A layer claim may be read here; an end-to-end claim only on
# bench/run.sh --compare.
set -euo pipefail

usage() {
	echo "usage: ab.sh [-n pairs] [-benchtime d] [-cpu list] <parent-rev> <bench-regexp> <pkg>..." >&2
	exit 2
}

pairs=10 benchtime=1s cpu=
while [[ $# -gt 0 && $1 == -* ]]; do
	[[ $# -ge 2 ]] || usage
	case $1 in
	-n) pairs=$2 ;;
	-benchtime) benchtime=$2 ;;
	-cpu) cpu=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[[ $# -ge 3 && $pairs =~ ^[1-9][0-9]*$ ]] || usage
rev=$1 regexp=$2
shift 2
pkgs=("$@")

ncpu=$(nproc)
echo "nproc $ncpu"
if [[ -n $cpu ]]; then
	IFS=, read -ra cpus <<<"$cpu"
	for c in "${cpus[@]}"; do
		if ! [[ $c =~ ^[1-9][0-9]*$ ]] || ((c > ncpu)); then
			echo "ab.sh: -cpu $c: want 1..$ncpu (nproc)" >&2
			exit 2
		fi
	done
fi

root=$(git rev-parse --show-toplevel)
build=$root/.bench_build/ab
parent=$build/parent
cleanup() {
	git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
	rm -rf "$build"
	git -C "$root" worktree prune
}
cleanup
trap cleanup EXIT
mkdir -p "$build"
git -C "$root" worktree add --quiet --detach "$parent" "$rev"
echo "parent $(git -C "$parent" rev-parse --short HEAD) ($rev), change $(git -C "$root" rev-parse --short HEAD) + working tree, -benchtime $benchtime, -cpu ${cpu:-GOMAXPROCS}"

for i in "${!pkgs[@]}"; do
	(cd "$root" && go test -c -o "$build/change-$i.test" "${pkgs[i]}")
	(cd "$parent" && go test -c -o "$build/parent-$i.test" "${pkgs[i]}")
done

# run <side> <pair>: every package's binary of one side, one line
# "side pair pkg benchmark ns/op" per benchmark result.
run() {
	local side=$1 pair=$2 tree=$root i name iters ns unit rest
	[[ $side == parent ]] && tree=$parent
	for i in "${!pkgs[@]}"; do
		(cd "$tree/${pkgs[i]}" && "$build/$side-$i.test" -test.run '^$' -test.bench "$regexp" \
			-test.benchtime "$benchtime" -test.timeout 30m ${cpu:+-test.cpu "$cpu"}) |
			while read -r name iters ns unit rest; do
				if [[ $name == Benchmark* && $unit == ns/op ]]; then
					echo "$side $pair ${pkgs[i]} $name $ns"
				fi
			done
	done
}

results=$build/results
: >"$results"
for ((p = 0; p < pairs; p++)); do
	if ((p % 2 == 0)); then
		run parent "$p" >>"$results"
		run change "$p" >>"$results"
	else
		run change "$p" >>"$results"
		run parent "$p" >>"$results"
	fi
done

cat >"$build/abstat.go" <<'EOF'
// abstat reads ab.sh's result lines and prints one row per benchmark.
package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the distance between the quartiles, interpolated as
// bench/compare.go does.
func spread(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(3) - at(1)
}

func main() {
	pairs, _ := strconv.Atoi(os.Args[1])
	type row struct{ pkg, name string }
	var rows []row
	ns := map[row]map[string]map[string]float64{} // row → side → pair → ns/op
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			panic(err)
		}
		r := row{f[2], f[3]}
		if ns[r] == nil {
			rows = append(rows, r)
			ns[r] = map[string]map[string]float64{"parent": {}, "change": {}}
		}
		ns[r][f[0]][f[1]] = v
	}
	fmt.Printf("%-36s %-16s %12s %12s %8s %12s %6s  %-11s %s\n",
		"benchmark", "pkg", "parent ns/op", "change ns/op", "change", "parent IQR", "wins", "verdict", "ratios change/parent")
	for _, r := range rows {
		var ps, cs []float64
		var text []string
		wins, losses := 0, 0 // ties count for neither
		for p := range pairs {
			pv, okp := ns[r]["parent"][strconv.Itoa(p)]
			cv, okc := ns[r]["change"][strconv.Itoa(p)]
			if !okp || !okc {
				continue
			}
			ps, cs = append(ps, pv), append(cs, cv)
			text = append(text, strconv.FormatFloat(cv/pv, 'f', 3, 64))
			if cv < pv {
				wins++
			} else if cv > pv {
				losses++
			}
		}
		n := len(ps)
		if n == 0 {
			fmt.Printf("%-36s %-16s on one side only\n", r.name, r.pkg)
			continue
		}
		pm, cm, iqr := median(ps), median(cs), spread(ps)
		verdict := "unresolved"
		switch {
		case 10*wins >= 9*n && pm-cm > iqr:
			verdict = "gain"
		case 10*losses >= 9*n && cm-pm > iqr:
			verdict = "regression"
		}
		fmt.Printf("%-36s %-16s %12.4g %12.4g %+7.1f%% %12.3g %3d/%-2d  %-11s %s\n",
			r.name, r.pkg, pm, cm, 100*(cm-pm)/pm, iqr, wins, n, verdict, strings.Join(text, " "))
	}
}
EOF
(cd "$root" && go run "$build/abstat.go" "$pairs") <"$results"
