// Package obs is a stand-in for repro/internal/obs: casloop recognizes
// Inc/Add/Observe calls on any package named obs as CAS accounting.
package obs

type Counter uint8

type Stats struct{ n [8]uint64 }

func (s *Stats) Inc(c Counter)               { s.n[c]++ }
func (s *Stats) Add(c Counter, d uint64)     { s.n[c] += d }
func (s *Stats) Observe(c Counter, v uint64) { s.n[c] += v }
