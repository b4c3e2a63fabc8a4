// Lfcheck is the repository's lock-free-code lint suite: a multichecker
// over the analyzers in repro/internal/lint that runs as a go vet tool
// (so it also covers _test.go files):
//
//	go build -o /tmp/lfcheck ./cmd/lfcheck
//	go vet -vettool=/tmp/lfcheck ./...
//
// Given anything else, such as package patterns, it prints its usage and
// exits non-zero. See README.md "Static analysis" and DESIGN.md §7 for
// what each analyzer enforces and how to suppress a finding.
package main

import (
	"os"

	"repro/internal/lint"
	"repro/internal/lint/driver"
)

func main() {
	os.Exit(driver.Main(lint.Analyzers(), os.Args[1:]))
}
