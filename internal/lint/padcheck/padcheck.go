// Package padcheck defines an Analyzer that verifies //lf:contended
// field annotations: a contended field must own its cache line(s).
//
// # Analyzer padcheck
//
// padcheck: verify that //lf:contended fields are isolated on their own
// cache line.
//
// The paper's §4.3 shows that false sharing between a queue's contended
// words (head, tail, extraction counters) and anything else — including
// each other — costs more than the atomic operations themselves: every
// CAS or FAA invalidates the line in all other caches, so a read-mostly
// neighbor field turns into a coherence-miss generator. Hot fields are
// annotated in the source:
//
//	type Queue[T any] struct {
//		//lf:contended
//		head atomic.Pointer[node[T]]
//		_    [56]byte
//		//lf:contended
//		tail atomic.Pointer[node[T]]
//		...
//	}
//
// and the analyzer computes the struct layout (64-byte lines, the
// target's size model) and reports any annotated field that shares a
// cache line with a non-padding field. Padding fields are blank ("_")
// fields. Zero-sized annotated fields and fields whose layout depends on
// an uninstantiated type parameter are reported as unverifiable: keep
// type-parameter-sized fields (plain T cells) out of contended structs,
// or suppress with //lint:ignore padcheck <reason>.
//
// Offsets within a struct say which line a field is on only if the
// struct starts on a line. Go places an allocation whose size is a whole
// number of lines on a line boundary, and so each element of an array of
// such structs, but a struct of another size may start anywhere. So a
// struct with an annotated field must also be a whole number of lines
// long, or give each annotated field a full line of blank padding on both
// sides (the struct's start and end do not count as padding), which
// isolates it wherever the struct starts.
package padcheck

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

const directive = "//lf:contended"

// Analyzer verifies //lf:contended cache-line isolation annotations.
var Analyzer = &analysis.Analyzer{
	Name: "padcheck",
	Doc:  "verify that //lf:contended struct fields are isolated on their own cache line",
	Run:  run,
}

type fieldInfo struct {
	name      string
	node      *ast.Field
	contended bool
	padding   bool // blank field, inert layout filler
}

func run(pass *analysis.Pass) (interface{}, error) {
	sizes := lintutil.SizeInfo{Sizes: pass.TypesSizes}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			checkStruct(pass, sizes, st)
			return true
		})
	}
	return nil, nil
}

func checkStruct(pass *analysis.Pass, sizes lintutil.SizeInfo, st *ast.StructType) {
	// Expand the AST field list to one entry per types.Struct field.
	var fields []fieldInfo
	anyContended := false
	for _, f := range st.Fields.List {
		contended := lintutil.HasDirective(directive, f.Doc, f.Comment)
		anyContended = anyContended || contended
		names := f.Names
		if len(names) == 0 { // embedded field
			fields = append(fields, fieldInfo{name: embeddedName(f.Type), node: f, contended: contended})
			continue
		}
		for _, name := range names {
			fields = append(fields, fieldInfo{
				name:      name.Name,
				node:      f,
				contended: contended,
				padding:   name.Name == "_",
			})
		}
	}
	if !anyContended {
		return
	}
	tv, ok := pass.TypesInfo.Types[st]
	if !ok {
		return
	}
	tst, ok := tv.Type.Underlying().(*types.Struct)
	if !ok || tst.NumFields() != len(fields) {
		return
	}
	// Compute each field's byte extent; unknown layouts fail loudly.
	type extent struct {
		lo, hi int64 // [lo, hi), hi==lo for zero-sized
		known  bool
	}
	extents := make([]extent, len(fields))
	for i := range fields {
		off, okOff := sizes.FieldOffset(tst, i)
		sz, okSz := sizes.Sizeof(tst.Field(i).Type())
		extents[i] = extent{off, off + sz, okOff && okSz}
	}
	structSize, sizeOK := sizes.Sizeof(tst)
	wholeLines := sizeOK && structSize%lintutil.CacheLine == 0
	// padAround returns the blank bytes between field i and its nearest
	// non-padding, non-empty neighbours; the struct's ends are not padding.
	padAround := func(i int) (before, after int64) {
		before, after = extents[i].lo, structSize-extents[i].hi
		for j := i - 1; j >= 0; j-- {
			if g := extents[j]; !fields[j].padding && g.hi > g.lo {
				before = extents[i].lo - g.hi
				break
			}
		}
		for j := i + 1; j < len(fields); j++ {
			if g := extents[j]; !fields[j].padding && g.hi > g.lo {
				after = g.lo - extents[i].hi
				break
			}
		}
		return before, after
	}
	for i, f := range fields {
		if !f.contended || f.padding {
			continue
		}
		e := extents[i]
		if !e.known {
			pass.Reportf(f.node.Pos(),
				"cannot verify %s field %s: struct layout depends on a type parameter",
				directive, f.name)
			continue
		}
		if e.hi == e.lo {
			pass.Reportf(f.node.Pos(), "%s field %s is zero-sized", directive, f.name)
			continue
		}
		if sizeOK && !wholeLines {
			if before, after := padAround(i); before < lintutil.CacheLine || after < lintutil.CacheLine {
				pass.Reportf(f.node.Pos(),
					"%s field %s: the struct is %d B, not a whole number of %d-byte lines, and the field has %d B of padding before it and %d B after; pad the struct to a multiple of %d B or the field with %d B on both sides",
					directive, f.name, structSize, lintutil.CacheLine, before, after, lintutil.CacheLine, lintutil.CacheLine)
			}
		}
		loLine, hiLine := e.lo/lintutil.CacheLine, (e.hi-1)/lintutil.CacheLine
		for j, g := range fields {
			if j == i || g.padding {
				continue
			}
			ge := extents[j]
			if !ge.known {
				pass.Reportf(f.node.Pos(),
					"cannot verify %s field %s: size of neighboring field %s depends on a type parameter",
					directive, f.name, g.name)
				break
			}
			if ge.hi == ge.lo {
				continue // zero-sized neighbor occupies no line
			}
			gLo, gHi := ge.lo/lintutil.CacheLine, (ge.hi-1)/lintutil.CacheLine
			if gHi < loLine || gLo > hiLine {
				continue
			}
			pass.Reportf(f.node.Pos(),
				"%s field %s (bytes %d-%d) shares a cache line with field %s (bytes %d-%d); isolate it with _ [N]byte padding",
				directive, f.name, e.lo, e.hi-1, g.name, ge.lo, ge.hi-1)
		}
	}
}

func embeddedName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return embeddedName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return embeddedName(t.X)
	default:
		return "?"
	}
}
