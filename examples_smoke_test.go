package repro_test

// Build-and-smoke coverage for the binary layer (cmd/ and examples/),
// so demos can't silently rot: every binary must compile with the race
// detector, and the flag-driven ones must complete a short run cleanly.

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// raceFlag returns ["-race"] when this toolchain can build with the
// race detector (requires cgo); otherwise the smoke builds run plain.
func raceFlag(t *testing.T) []string {
	cmd := exec.Command("go", "env", "CGO_ENABLED")
	out, err := cmd.Output()
	if err == nil && len(out) > 0 && out[0] == '1' {
		return []string{"-race"}
	}
	t.Log("cgo unavailable: smoke-building without -race")
	return nil
}

func buildBinaries(t *testing.T, dir string, race []string) {
	t.Helper()
	args := append([]string{"build"}, race...)
	args = append(args, "-o", dir+string(filepath.Separator),
		"./cmd/...", "./examples/...")
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %v failed: %v\n%s", args, err, out)
	}
}

func runBinary(t *testing.T, bin string, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", filepath.Base(bin), args, err, out)
	}
}

// TestBinariesSmoke builds every cmd/ and examples/ binary (with -race
// when available) and runs the flag-driven ones briefly. In -short mode
// only the cheapest runs execute; the full mode also runs the fixed-size
// demos.
func TestBinariesSmoke(t *testing.T) {
	dir := t.TempDir()
	race := raceFlag(t)
	buildBinaries(t, dir, race)

	runBinary(t, filepath.Join(dir, "quickstart"))
	runBinary(t, filepath.Join(dir, "shardedmap"),
		"-sessions", "200", "-threads", "2", "-ops", "2000")

	if testing.Short() {
		return
	}
	for _, demo := range []string{"bank", "hashmove", "pipeline", "scheduler"} {
		runBinary(t, filepath.Join(dir, demo))
	}
}
