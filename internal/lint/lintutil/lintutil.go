// Package lintutil holds the type- and AST-query helpers shared by the
// repro/internal/lint analyzers: resolving call targets, classifying
// package-level sync/atomic calls, finding //lf:* field annotations, and
// computing struct layouts without tripping over generic type
// parameters.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// CacheLine is the cache-line granularity padcheck enforces. 64 bytes
// matches every platform this repository targets (and the paper's §4.3
// measurements).
const CacheLine = 64

// Callee resolves the function or method a call statically invokes, or
// nil (indirect call through a function value, type conversion, ...).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit instantiation: f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	default:
		return nil
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// LegacyAtomic reports whether fn is one of the package-level sync/atomic
// functions, returning the operation ("CompareAndSwap", "Load", "Store",
// "Swap", "Add", "And" or "Or") and the operand type ("Int32", "Uint32",
// "Int64", "Uint64", "Uintptr" or "Pointer"), which is also the name of
// the typed atomic whose method replaces the call.
func LegacyAtomic(fn *types.Func) (op, typ string, ok bool) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false // method on a typed atomic, not a legacy call
	}
	name := fn.Name()
	for _, p := range []string{"CompareAndSwap", "Load", "Store", "Swap", "Add", "And", "Or"} {
		if strings.HasPrefix(name, p) {
			switch suffix := strings.TrimPrefix(name, p); suffix {
			case "Int32", "Uint32", "Int64", "Uint64", "Uintptr", "Pointer":
				return p, suffix, true
			}
			return "", "", false
		}
	}
	return "", "", false
}

// HasDirective reports whether any comment in the groups is the given
// //-directive (exact prefix match, e.g. "//lf:contended").
func HasDirective(directive string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := c.Text
			if text == directive ||
				strings.HasPrefix(text, directive+" ") ||
				strings.HasPrefix(text, directive+"\t") {
				return true
			}
		}
	}
	return false
}

// SizeInfo computes sizes/offsets under a given platform size model,
// refusing (ok=false) when the answer depends on an uninstantiated type
// parameter — generic structs are handled as long as the type parameter
// only appears behind pointers, slices, maps, channels or functions.
type SizeInfo struct {
	Sizes types.Sizes
}

// Sizeof returns t's size, with ok=false if it depends on a type param.
func (s SizeInfo) Sizeof(t types.Type) (int64, bool) {
	if !sizeKnown(t, nil) {
		return 0, false
	}
	return s.Sizes.Sizeof(t), true
}

// FieldOffset returns the byte offset of field index i within struct st.
func (s SizeInfo) FieldOffset(st *types.Struct, i int) (int64, bool) {
	// Only the prefix up to and including i determines the offset; later
	// fields must not be touched (they may be type-parameter sized).
	fields := make([]*types.Var, i+1)
	for j := range fields {
		f := st.Field(j)
		if !sizeKnown(f.Type(), nil) {
			return 0, false
		}
		fields[j] = f
	}
	return s.Sizes.Offsetsof(fields)[i], true
}

// sizeKnown reports whether t's size is independent of type parameters.
func sizeKnown(t types.Type, seen map[types.Type]bool) bool {
	t = types.Unalias(t)
	// A type parameter's Underlying is its constraint interface, so it
	// must be caught before the underlying switch.
	if _, isParam := t.(*types.TypeParam); isParam {
		return false
	}
	if seen[t] {
		return true // cycles go through pointers; treat as known
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !sizeKnown(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || sizeKnown(u.Elem(), seen)
	case *types.Basic, *types.Pointer, *types.Slice, *types.Map,
		*types.Chan, *types.Signature, *types.Interface:
		return true
	default:
		return false
	}
}
