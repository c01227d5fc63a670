package main

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsReachSessionAndCluster builds cuccrun and runs FIR really executed
// on four nodes under recursive doubling with the metrics table on.  The
// schedule line shows -collective reached the session; the
// comm.sched_recdouble counters and transport.send.msgs, equal to the
// allgather line's message count, show the cluster's transport was metered
// into the same registry the table prints.
func TestFlagsReachSessionAndCluster(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(t.TempDir(), "cuccrun")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	raw, err := exec.Command(bin, "-prog", "FIR", "-nodes", "4", "-real", "-collective", "recdouble", "-metrics").CombinedOutput()
	out := string(raw)
	if err != nil {
		t.Fatalf("cuccrun: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`(?m)^\s*schedule:\s+recdouble$`).MatchString(out) {
		t.Errorf("no \"schedule: recdouble\" line:\n%s", out)
	}
	if !strings.Contains(out, "comm.sched_recdouble.") {
		t.Errorf("metrics table has no comm.sched_recdouble.* rows:\n%s", out)
	}
	gather := regexp.MustCompile(`(?m)^\s*allgather:.*, (\d+) msgs\)$`).FindStringSubmatch(out)
	sent := regexp.MustCompile(`(?m)^counter\s+transport\.send\.msgs\s+(\d+)$`).FindStringSubmatch(out)
	switch {
	case gather == nil:
		t.Errorf("no allgather line:\n%s", out)
	case sent == nil:
		t.Errorf("no transport.send.msgs counter:\n%s", out)
	case gather[1] == "0":
		t.Errorf("allgather sent no messages:\n%s", out)
	case sent[1] != gather[1]:
		t.Errorf("transport.send.msgs = %s, allgather line says %s msgs", sent[1], gather[1])
	}
}
