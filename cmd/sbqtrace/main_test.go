package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestMain runs sbqtrace itself instead of the tests when the test binary
// is re-executed with SBQTRACE_MAIN=1, so a test can drive the command end
// to end, exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("SBQTRACE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sbqtrace runs the command with args and returns its combined output and
// exit status.
func sbqtrace(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SBQTRACE_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("run sbqtrace %v: %v", args, err)
	}
	return string(out), 0
}

// An unknown -variant is refused before recording, with exit status 2 and
// the list of variants the harness builds, instead of a panic mid-run.
func TestRecordUnknownVariant(t *testing.T) {
	out, code := sbqtrace(t, "-record", "-variant", "nosuch", "-out", os.DevNull)
	if code != 2 || strings.Contains(out, "panic") {
		t.Fatalf("exit status %d, want 2 without a panic:\n%s", code, out)
	}
	for _, v := range harness.Buildable {
		if !strings.Contains(out, string(v)) {
			t.Errorf("message does not list variant %s:\n%s", v, out)
		}
	}
}

// The baselines no figure runs are reachable through -record -variant.
func TestRecordExtraBaselines(t *testing.T) {
	for _, v := range []harness.Variant{harness.MSQueue, harness.LCRQV} {
		out, code := sbqtrace(t, "-record", "-variant", string(v), "-threads", "2", "-ops", "10", "-out", os.DevNull)
		if code != 0 {
			t.Errorf("-variant %s: exit status %d:\n%s", v, code, out)
		}
	}
}
