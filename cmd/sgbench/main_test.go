package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentIDs builds the command and runs it twice. An id it does
// not know, here one of the retired throughput experiments, must exit
// with status 2 and list every valid id on stderr; it must not exit 0
// silently with nothing printed. A paper experiment must print its
// table and exit 0.
func TestExperimentIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "sgbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, "-exp", "shard")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("-exp shard: %v (want exit status 2)\nstderr: %s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-exp shard printed to stdout: %q", stdout.String())
	}
	for _, id := range append(experimentIDs, "all") {
		if !strings.Contains(stderr.String(), id) {
			t.Errorf("stderr does not list %q: %s", id, stderr.String())
		}
	}

	out, err := exec.Command(bin, "-exp", "table1", "-scale", "small").Output()
	if err != nil {
		t.Fatalf("-exp table1: %v", err)
	}
	if !strings.Contains(string(out), "== Table 1: dataset summary ==") {
		t.Fatalf("-exp table1 printed no Table 1:\n%s", out)
	}
}
