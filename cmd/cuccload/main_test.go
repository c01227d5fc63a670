package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cucc/internal/serve"
)

// buildCuccload builds the command into a temporary directory.
func buildCuccload(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(t.TempDir(), "cuccload")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSweepAgainstServer drives an in-process cuccd over loopback: the sweep
// row must show every offered job and no error, and the server must have
// completed exactly the jobs the row offered.
func TestSweepAgainstServer(t *testing.T) {
	bin := buildCuccload(t)
	srv := serve.NewServer(serve.Config{Executors: 2, Nodes: 2, Workers: 1})
	defer srv.Drain()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	raw, err := exec.Command(bin, "-addr", addr, "-rates", "200", "-jobs", "20", "-mix", "t:VecAdd:1").CombinedOutput()
	out := string(raw)
	if err != nil {
		t.Fatalf("cuccload: %v\n%s", err, out)
	}
	// rate/s offered qps p50 p99 p999 hp50 hp90 hp99 reject errors
	row := regexp.MustCompile(`(?m)^\s+200\s+(\d+)\s.*\s(\d+)$`).FindStringSubmatch(out)
	if row == nil {
		t.Fatalf("no sweep row for rate 200:\n%s", out)
	}
	if row[1] != "20" || row[2] != "0" {
		t.Errorf("row offered %s errors %s, want 20 and 0:\n%s", row[1], row[2], out)
	}
	if got := srv.Registry().Snapshot().Counters[serve.MetricJobsCompleted]; got != 20 {
		t.Errorf("%s = %d, want 20", serve.MetricJobsCompleted, got)
	}
}

// TestBadSweepExits2: a sweep that offers nothing is a usage error, refused
// before any connection is made.
func TestBadSweepExits2(t *testing.T) {
	bin := buildCuccload(t)
	for _, args := range [][]string{
		{"-jobs", "-1"},
		{"-jobs", "0"},
		{"-rates", "0"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		// A Go panic also exits 2, so the message is checked too.
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(string(out), "panic") {
			t.Errorf("cuccload %v: %v, want exit status 2 with a usage message\n%s", args, err, out)
		}
	}
}
