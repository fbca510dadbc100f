//go:build !linux

package main

import "errors"

const pinnedEnv = "DECORR_BENCH_PINNED"

// pinToOneCPU exists so the package builds everywhere; the harness itself
// needs Linux (CPU affinity, /proc/<pid>/status).
func pinToOneCPU() error { return errors.New("the benchmark runs on Linux only") }
