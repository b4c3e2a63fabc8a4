package driver_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// module is a dependency-free module for the vet-tool run: one package
// per case, so each go vet invocation's exit status belongs to one case.
var module = map[string]string{
	"go.mod": "module example.com/m\n\ngo 1.21\n",
	"pad/pad.go": `package pad

import "sync/atomic"

type queue struct {
	//lf:contended
	head atomic.Uint64
	tail atomic.Uint64
}
`,
	"ignored/ignored.go": `package ignored

import "sync/atomic"

type queue struct {
	//lf:contended
	//lint:ignore padcheck packed deliberately
	head atomic.Uint64
	tail atomic.Uint64
}
`,
	"legacy/legacy.go": `package legacy

import "sync/atomic"

type counter struct{ n uint64 }

func (c *counter) inc() { atomic.AddUint64(&c.n, 1) }
`,
}

// TestVetTool builds cmd/lfcheck and runs it under go vet -vettool, the
// only way lfcheck runs, on a temporary module with no dependencies (and
// GOPROXY=off), so nothing is downloaded.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/lfcheck and runs go vet")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	env := append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOPROXY=off", "GOTOOLCHAIN=local")
	tool := filepath.Join(t.TempDir(), "lfcheck")
	build := exec.Command(goCmd, "build", "-o", tool, "repro/cmd/lfcheck")
	build.Env = env
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build lfcheck: %v\n%s", err, out)
	}
	dir := t.TempDir()
	for name, src := range module {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vet := func(pkg string) (string, error) {
		cmd := exec.Command(goCmd, "vet", "-vettool="+tool, pkg)
		cmd.Dir, cmd.Env = dir, env
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	t.Run("padcheck", func(t *testing.T) {
		out, err := vet("./pad")
		want := "//lf:contended field head (bytes 0-7) shares a cache line with field tail (bytes 8-15); isolate it with _ [N]byte padding (padcheck)"
		if err == nil || !strings.Contains(out, want) {
			t.Errorf("go vet ./pad = %v\n%s\nwant a failure reporting %q", err, out, want)
		}
	})
	t.Run("ignore", func(t *testing.T) {
		if out, err := vet("./ignored"); err != nil || out != "" {
			t.Errorf("go vet ./ignored = %v\n%s\nwant a clean pass", err, out)
		}
	})
	t.Run("typedatomic", func(t *testing.T) {
		out, err := vet("./legacy")
		want := "package-level atomic.AddUint64: declare the word as atomic.Uint64 and call its Add method (typedatomic)"
		if err == nil || !strings.Contains(out, want) {
			t.Errorf("go vet ./legacy = %v\n%s\nwant a failure reporting %q", err, out, want)
		}
	})
	t.Run("version", func(t *testing.T) {
		out, err := exec.Command(tool, "-V=full").Output()
		if err != nil || !regexp.MustCompile(`^lfcheck version devel buildID=[0-9a-f]+\n$`).Match(out) {
			t.Errorf("lfcheck -V=full = %v, %q; want the go command's version handshake", err, out)
		}
	})
	t.Run("patterns", func(t *testing.T) {
		cmd := exec.Command(tool, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || !strings.Contains(string(out), "go vet -vettool=") {
			t.Errorf("lfcheck ./... = %v\n%s\nwant the usage text and a non-zero exit", err, out)
		}
	})
}
