package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
	"repro/service"
)

// scrapeService stands up a real service, applies load, and returns the
// rendered /metrics page — the same bytes sbqtop would fetch.
func scrapeService(t *testing.T) (*service.Service, string) {
	t.Helper()
	svc, err := service.New(service.Config{
		SnapshotPath: filepath.Join(t.TempDir(), "snap.json"),
		Shards:       2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := svc.Submit("alpha", nil); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	l, ok, err := svc.Lease("alpha")
	if err != nil || !ok {
		t.Fatalf("Lease: ok=%v err=%v", ok, err)
	}
	if err := svc.Ack(l.Token); err != nil {
		t.Fatalf("Ack: %v", err)
	}
	rr := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	return svc, rr.Body.String()
}

func TestRenderFrame(t *testing.T) {
	_, page := scrapeService(t)
	cur, err := export.Parse(strings.NewReader(page))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}

	var b strings.Builder
	render(&b, cur, nil, 0, "test")
	frame := b.String()
	for _, want := range []string{"READY", "alpha", "TENANT", "DEPTH", "LEASE ms"} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	// First frame has no previous scrape: rates render as "-".
	if !strings.Contains(frame, "-") {
		t.Fatalf("first frame should show \"-\" rates:\n%s", frame)
	}

	// Second frame against the first: submit rate = 0 (no new load), but
	// the quantile columns carry real numbers.
	var b2 strings.Builder
	render(&b2, cur, cur, time.Second, "test")
	if !strings.Contains(b2.String(), "0.0") {
		t.Fatalf("steady-state frame shows no zero rate:\n%s", b2.String())
	}
}

// TestFrameRatiosSinceOwnScrape checks that CAS-FAIL% covers the interval
// between sbqtop's own scrapes, whoever else scrapes the endpoint in
// between, and the lifetime totals on the first frame.
func TestFrameRatiosSinceOwnScrape(t *testing.T) {
	svc, err := service.New(service.Config{Queue: "SBQ-CAS"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	traffic := func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					if _, err := svc.Submit("alpha", nil); err != nil {
						t.Errorf("Submit: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	scrape := func() *export.Scrape {
		rr := httptest.NewRecorder()
		svc.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		sc, err := export.Parse(rr.Body)
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		return sc
	}
	sel := export.Labels{"tenant": "alpha"}
	counter := func(sc *export.Scrape, c obs.Counter) float64 {
		v, _ := sc.Value(export.CounterName(c), sel)
		return v
	}
	casFail := func(cur, prev *export.Scrape) string {
		t.Helper()
		var b strings.Builder
		render(&b, cur, prev, time.Second, "test")
		lines := strings.Split(b.String(), "\n")
		for i, line := range lines {
			if !strings.Contains(line, "CAS-FAIL%") {
				continue
			}
			for _, row := range lines[i+1:] {
				if f := strings.Fields(row); len(f) > 2 && f[0] == "alpha" {
					return f[len(f)-2]
				}
			}
		}
		t.Fatalf("no CAS-FAIL%% cell for alpha:\n%s", b.String())
		return ""
	}

	traffic()
	first := scrape()
	a1, f1 := counter(first, obs.CASAttempts), counter(first, obs.CASFailures)
	if a1 == 0 {
		t.Fatal("no linking CAS counted")
	}
	if got, want := casFail(first, nil), fmt.Sprintf("%.1f", 100*f1/a1); got != want {
		t.Errorf("frame 1 CAS-FAIL%% = %s, want the lifetime %s", got, want)
	}

	traffic()
	scrape() // another client
	second := scrape()
	da := counter(second, obs.CASAttempts) - a1
	df := counter(second, obs.CASFailures) - f1
	if da == 0 {
		t.Fatal("no linking CAS counted between the scrapes")
	}
	if got, want := casFail(second, first), fmt.Sprintf("%.1f", 100*df/da); got != want {
		t.Errorf("frame 2 CAS-FAIL%% = %s, want %s over sbqtop's own interval", got, want)
	}
}

func TestValidateFiles(t *testing.T) {
	svc, first := scrapeService(t)
	// More load, then a second scrape: strictly more counted events.
	if _, err := svc.Submit("alpha", nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rr := httptest.NewRecorder()
	svc.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	second := rr.Body.String()

	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.prom"), filepath.Join(dir, "b.prom")
	writeFile(t, a, first)
	writeFile(t, b, second)

	var out strings.Builder
	if code := validateFiles(&out, a, b); code != 0 {
		t.Fatalf("forward validation failed (%d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Fatalf("no ok summary:\n%s", out.String())
	}

	// Reversed order: counters appear to decrease — must fail loudly.
	out.Reset()
	if code := validateFiles(&out, b, a); code == 0 {
		t.Fatalf("reversed scrapes validated:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "monotonicity") {
		t.Fatalf("failure does not name monotonicity:\n%s", out.String())
	}

	// Syntactic garbage must fail parse validation.
	bad := filepath.Join(dir, "bad.prom")
	writeFile(t, bad, "sbq_srv_submits_total{tenant=\"x} 1\n")
	out.Reset()
	if code := validateFiles(&out, a, bad); code == 0 {
		t.Fatalf("invalid exposition validated:\n%s", out.String())
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
