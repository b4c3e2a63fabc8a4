// Package a exercises the padcheck analyzer (layout under GOARCH=amd64,
// 64-byte cache lines).
package a

import "sync/atomic"

// Properly isolated: each contended field owns its line, and the struct
// is a whole number of lines.
type okQueue struct {
	//lf:contended
	head atomic.Uint64
	_    [56]byte
	//lf:contended
	tail atomic.Uint64
	_    [56]byte
	size int
	_    [56]byte
}

// head (bytes 0-7) and tail (bytes 8-15) share line 0.
type badQueue struct {
	//lf:contended
	head atomic.Uint64 // want `field head \(bytes 0-7\) shares a cache line with field tail \(bytes 8-15\)` `field head: the struct is 16 B, not a whole number of 64-byte lines`
	tail atomic.Uint64
}

// A read-mostly neighbor on the counter's line is exactly the §4.3
// false-sharing pattern.
type badCounter struct {
	//lf:contended
	n    atomic.Uint64 // want `field n \(bytes 0-7\) shares a cache line with field name` `field n: the struct is 72 B`
	_    [48]byte
	name string
}

// A whole number of lines: offsets within the struct are offsets within
// its lines wherever an allocation of it starts, and so are the offsets
// of every element of an array of it.
type wholeLines struct {
	//lf:contended
	n    atomic.Uint64
	_    [56]byte
	name string
	_    [48]byte
}

// A full line of padding on both sides isolates the field wherever the
// struct starts, so the struct's size does not matter.
type paddedBothSides struct {
	name string
	_    [64]byte
	//lf:contended
	n atomic.Uint64
	_ [64]byte
	m int
}

// Offsets alone pass (name is on line 1), but at 80 B every other
// element of an array of it starts mid-line, and n's line then holds the
// previous element's name.
type notWholeLines struct {
	//lf:contended
	n    atomic.Uint64 // want `field n: the struct is 80 B, not a whole number of 64-byte lines, and the field has 0 B of padding before it and 56 B after`
	_    [56]byte
	name string
}

// A full line of padding on one side only is not enough.
type paddedOneSide struct {
	name string
	_    [64]byte
	//lf:contended
	n atomic.Uint64 // want `field n: the struct is 152 B, not a whole number of 64-byte lines, and the field has 64 B of padding before it and 56 B after`
	_ [56]byte
	m int
}

// Unannotated structs are never checked.
type unannotated struct {
	head atomic.Uint64
	tail atomic.Uint64
}

// A contended field spanning multiple lines must own all of them.
type spanning struct {
	//lf:contended
	counters [15]atomic.Uint64 // want `field counters \(bytes 0-119\) shares a cache line with field trailing \(bytes 120-127\)`
	trailing atomic.Uint64
	_        [64]byte
}

type zeroSized struct {
	//lf:contended
	marker struct{} // want `field marker is zero-sized`
	_      [64]byte
}

// Layouts depending on a type parameter cannot be verified.
type generic[T any] struct {
	//lf:contended
	counter atomic.Uint64 // want `size of neighboring field v depends on a type parameter`
	v       T
}

// A type parameter behind a pointer is fine.
type genericOK[T any] struct {
	//lf:contended
	head *T
	_    [56]byte
	n    int
	_    [56]byte
}

type suppressed struct {
	//lf:contended
	//lint:ignore padcheck packed deliberately, cold struct kept for layout docs
	head atomic.Uint64
	tail atomic.Uint64
}
