package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// procRun is one finished memosim process: its output, wall clock and
// resource usage as the kernel accounted it.
type procRun struct {
	stdout  []byte
	wall    time.Duration
	cpu     time.Duration // user + system
	maxRSS  float64       // peak resident set, MiB
	exitErr error
}

// cpuUtil is the share of the host's CPUs the process kept busy.
func (p procRun) cpuUtil(nproc int) float64 {
	return p.cpu.Seconds() / (p.wall.Seconds() * float64(nproc))
}

// memosim runs the memosim binary to completion from the checkout root.
// A non-zero exit is reported in exitErr (with stderr attached), not as
// an error: the caller counts it as a failed output.
func (b *bench) memosim(args ...string) procRun {
	cmd := exec.Command(b.memosimBin, args...)
	cmd.Dir = b.root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	p := procRun{stdout: stdout.Bytes(), wall: time.Since(start)}
	if err != nil {
		p.exitErr = fmt.Errorf("memosim %v: %w\n%s", args, err, stderr.Bytes())
	}
	if cmd.ProcessState != nil {
		p.cpu, p.maxRSS = usage(cmd.ProcessState)
	}
	return p
}

// usage extracts CPU time and peak RSS from a finished process.
func usage(ps *os.ProcessState) (cpu time.Duration, maxRSSMiB float64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		maxRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cpu, maxRSSMiB
}
