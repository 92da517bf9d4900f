package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// modules lists this repository's layers, the packages under
// dynprof/internal. runtimeShare collects CPU samples with no frame in any
// of them: the Go runtime (GC, scheduler) and the benchmark's own code.
var modules = []string{
	"exp", "guide", "des", "vt", "vgv", "serve", "dpcl",
	"proc", "image", "isa", "mpi", "omp", "apps", "core", "adapt", "fault", "machine",
}

const runtimeShare = "runtime"

const internalPrefix = "dynprof/internal/"

// hostShares folds a CPU profile into per-module shares: each sample's
// time goes to the module of its innermost dynprof/internal frame. It reads
// the profile with `go tool pprof -traces`, part of the Go toolchain, and
// returns the shares with the total CPU time they rest on.
func hostShares(profile string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("bench: go tool pprof: %w", err)
	}
	return foldTraces(out)
}

// foldTraces parses `pprof -traces` output: samples separated by dashed
// rules, each starting with "<duration>   <innermost frame>" and continuing
// with one caller frame per line.
func foldTraces(out []byte) (map[string]float64, float64, error) {
	cpu := make(map[string]float64)
	var total float64
	inSample, attributed := false, false
	var weight float64
	flush := func() {
		if inSample && !attributed {
			cpu[runtimeShare] += weight
		}
		inSample = false
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inSample {
			if !strings.HasPrefix(line, " ") {
				continue // header lines before the first sample
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue
			}
			if len(fields) < 2 {
				return nil, 0, fmt.Errorf("bench: pprof sample without a frame: %q", line)
			}
			inSample, attributed = true, false
			weight = d.Seconds()
			total += weight
			frame = fields[1]
		}
		if attributed {
			continue
		}
		if m, ok := moduleOf(frame); ok {
			cpu[m] += weight
			attributed = true
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("bench: CPU profile holds no samples")
	}
	shares := make(map[string]float64, len(modules)+1)
	for _, m := range append(append([]string(nil), modules...), runtimeShare) {
		shares[m] = cpu[m] / total
	}
	return shares, total, nil
}

// moduleOf names the dynprof/internal module a symbolized frame belongs
// to: "dynprof/internal/apps/smg98.(*kernel).solve" is in "apps".
func moduleOf(frame string) (string, bool) {
	i := strings.Index(frame, internalPrefix)
	if i < 0 {
		return "", false
	}
	rest := frame[i+len(internalPrefix):]
	if j := strings.IndexAny(rest, "./"); j >= 0 {
		rest = rest[:j]
	}
	for _, m := range modules {
		if m == rest {
			return m, true
		}
	}
	return "", false
}
