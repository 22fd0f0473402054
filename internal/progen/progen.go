// Package progen generates random, well-formed MC programs for
// differential conformance testing. Every generated program is, by
// construction:
//
//   - well typed (it passes sem.Check);
//   - terminating: all loops have structurally bounded trip counts and all
//     recursion is guarded by an explicit depth parameter;
//   - memory safe: array indices are range-reduced modulo the object size,
//     pointers always target live storage with a statically tracked
//     minimum capacity, and every local is written before it is read;
//   - layout independent: no pointer is ever compared relationally against
//     a pointer into another object, subtracted across objects, or printed.
//
// Those guarantees mean a generated program has exactly one defined
// observable behavior — the one internal/refint computes — so any
// divergence in a compiled run is a compiler or simulator bug, not
// undefined behavior. The knobs tune pointer-aliasing density, loop
// nesting, call/recursion depth, array traffic, and dead-store density so
// the fuzzer reaches the corners the unified management model cares
// about: ambiguous references, last-use kills, and spill traffic.
//
// Generation is fully deterministic in (seed, knobs): the same pair
// always yields the same program, which is what makes failures from the
// differential harness and CI reproducible from a one-line seed.
package progen

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/token"
	"repro/internal/types"
)

// Knobs tunes the shape of generated programs. The zero value is not
// useful; start from DefaultKnobs.
type Knobs struct {
	Globals      int     // scalar int globals (max)
	GlobalArrays int     // global int arrays (max, at least 1 is forced)
	GlobalPtrs   int     // global int* variables (max)
	Funcs        int     // helper functions (max)
	MaxStmts     int     // statements per generated block (max)
	MaxNest      int     // statement nesting depth (if/loops)
	MaxExprDepth int     // expression tree depth
	MaxLoopTrip  int     // loop trip count (max, >= 1)
	CallDepth    int     // recursion budget passed from main
	MaxCallSites int     // call sites per function body (max)
	PtrDensity   float64 // probability of pointer-flavored choices
	DeadStores   float64 // probability of dead-store decoration per block
	PrintProb    float64 // probability a block gains a print statement
}

// DefaultKnobs is the tuning the differential harness and fuzz targets
// use: small enough that programs finish in well under the reference step
// budget, rich enough to exercise aliasing, nesting, and recursion.
func DefaultKnobs() Knobs {
	return Knobs{
		Globals:      4,
		GlobalArrays: 2,
		GlobalPtrs:   2,
		Funcs:        3,
		MaxStmts:     6,
		MaxNest:      3,
		MaxExprDepth: 4,
		MaxLoopTrip:  6,
		CallDepth:    6,
		MaxCallSites: 4,
		PtrDensity:   0.35,
		DeadStores:   0.25,
		PrintProb:    0.5,
	}
}

// SmallKnobs is DefaultKnobs with fewer functions, shorter blocks and
// shallower nesting: the compact programs the exact-analysis fuzz targets
// and the checked-in seed corpora use, where every program is classified
// and replayed several times over.
func SmallKnobs() Knobs {
	k := DefaultKnobs()
	k.Funcs = 2
	k.MaxStmts = 4
	k.MaxNest = 2
	return k
}

// ScaleKnobs tunes the generator for the scaling campaign (E12): programs
// roughly scale× the default size in functions and statement volume, with
// proportionally more globals and call sites so both the interprocedural
// summaries and the focused refinement have real material. Even scale 1 is
// larger than DefaultKnobs (6 globals, 5 functions, 7 statements per block).
func ScaleKnobs(scale int) Knobs {
	if scale < 1 {
		scale = 1
	}
	k := DefaultKnobs()
	k.Globals = 4 + 2*scale
	k.GlobalArrays = 2 + scale/2
	k.GlobalPtrs = 2 + scale/4
	k.Funcs = 3 + 2*scale
	k.MaxStmts = 6 + scale
	k.MaxCallSites = 4 + scale/2
	return k
}

func (k Knobs) normalized() Knobs {
	if k.MaxStmts < 1 {
		k.MaxStmts = 1
	}
	if k.MaxLoopTrip < 1 {
		k.MaxLoopTrip = 1
	}
	if k.MaxExprDepth < 1 {
		k.MaxExprDepth = 1
	}
	if k.CallDepth < 1 {
		k.CallDepth = 1
	}
	if k.GlobalArrays < 1 {
		k.GlobalArrays = 1
	}
	return k
}

// Generate produces the AST of a random program. The result always
// reparses from its printed form (ast.Print) to an equivalent tree.
func Generate(seed int64, k Knobs) *ast.File {
	k = k.normalized()
	g := &pg{r: rand.New(rand.NewSource(seed)), k: k}
	return g.file()
}

// Source is Generate rendered to MC source text — the canonical form both
// the reference interpreter and every compile configuration consume.
func Source(seed int64, k Knobs) string {
	return ast.Print(Generate(seed, k))
}

// ---- Generator state ----

// vk classifies a variable the generator can reference.
type vk int

const (
	vkInt   vk = iota // writable int scalar
	vkRO              // read-only int scalar (loop counters, depth param)
	vkPtr             // int* with known minimum capacity
	vkArray           // int array with known length
)

// vinfo is one referenceable variable with the capacity facts the
// generator relies on for memory safety.
type vinfo struct {
	name string
	kind vk
	cap  int  // vkPtr: minimum valid elements; vkArray: length
	glob bool // global storage (a legal target for global pointers)
}

// fninfo is a generated helper signature. Every helper takes the
// recursion-depth parameter first.
type fninfo struct {
	name    string
	retInt  bool
	ptrCaps []int // capacities of int* params after depth (0 = int param)
}

type pg struct {
	r *rand.Rand
	k Knobs

	globals []*vinfo // scalars
	garrays []*vinfo
	gptrs   []*vinfo
	fns     []*fninfo

	names int // fresh-name counter

	// Per-function generation state.
	scope     []*vinfo // visible variables, innermost last
	loops     []bool   // loop stack; true = for (continue allowed)
	callsLeft int
	inMain    bool
	depthVar  string // name of the depth parameter ("" in main)
	retInt    bool

	// pendingFill holds an array fill loop that must immediately follow
	// its declaration at the same block level (set by declLocal, drained
	// by stmts).
	pendingFill ast.Stmt
}

func (g *pg) fresh(prefix string) string {
	g.names++
	return fmt.Sprintf("%s%d", prefix, g.names)
}

func (g *pg) pick(n int) int { return g.r.Intn(n) }

func (g *pg) chance(p float64) bool { return g.r.Float64() < p }

func id(name string) *ast.Ident { return &ast.Ident{Name: name} }

func lit(v int64) ast.Expr {
	if v < 0 {
		return &ast.Unary{Op: token.MINUS, X: &ast.IntLit{Value: -v}}
	}
	return &ast.IntLit{Value: v}
}

func bin(op token.Kind, x, y ast.Expr) ast.Expr { return &ast.Binary{Op: op, X: x, Y: y} }

// ---- Program structure ----

func (g *pg) file() *ast.File {
	f := &ast.File{}

	// Globals. One array is always present as the universal pointer target.
	nArr := 1
	if g.k.GlobalArrays > 1 {
		nArr += g.pick(g.k.GlobalArrays)
	}
	for i := 0; i < nArr; i++ {
		ln := 4 + g.pick(13) // 4..16
		v := &vinfo{name: g.fresh("ga"), kind: vkArray, cap: ln, glob: true}
		g.garrays = append(g.garrays, v)
		f.Decls = append(f.Decls, &ast.VarDecl{Name: v.name, Type: types.ArrayOf(ln, types.Int)})
	}
	nGlob := 1 + g.pick(g.k.Globals+1)
	for i := 0; i < nGlob; i++ {
		v := &vinfo{name: g.fresh("g"), kind: vkInt, glob: true}
		g.globals = append(g.globals, v)
		d := &ast.VarDecl{Name: v.name, Type: types.Int}
		if g.chance(0.5) {
			d.Init = lit(int64(g.pick(129) - 64))
		}
		f.Decls = append(f.Decls, d)
	}
	nPtr := g.pick(g.k.GlobalPtrs + 1)
	for i := 0; i < nPtr; i++ {
		// Capacity this pointer is guaranteed to have once main's prologue
		// has aimed it at a target.
		c := 1 << g.pick(3) // 1, 2, or 4
		v := &vinfo{name: g.fresh("gp"), kind: vkPtr, cap: c, glob: true}
		g.gptrs = append(g.gptrs, v)
		f.Decls = append(f.Decls, &ast.VarDecl{Name: v.name, Type: types.PointerTo(types.Int)})
	}

	// Helper signatures first so bodies can call forward.
	nFn := g.pick(g.k.Funcs + 1)
	for i := 0; i < nFn; i++ {
		fn := &fninfo{name: g.fresh("f"), retInt: g.chance(0.7)}
		nParams := g.pick(3)
		for p := 0; p < nParams; p++ {
			if g.chance(g.k.PtrDensity) {
				fn.ptrCaps = append(fn.ptrCaps, 1<<g.pick(3)) // cap 1, 2, 4
			} else {
				fn.ptrCaps = append(fn.ptrCaps, 0)
			}
		}
		g.fns = append(g.fns, fn)
	}
	for _, fn := range g.fns {
		f.Decls = append(f.Decls, g.function(fn))
	}
	f.Decls = append(f.Decls, g.mainFunc())
	return f
}

// function generates one helper body.
func (g *pg) function(fn *fninfo) *ast.FuncDecl {
	g.inMain = false
	g.retInt = fn.retInt
	g.depthVar = g.fresh("d")
	g.callsLeft = g.pick(g.k.MaxCallSites + 1)
	g.scope = nil

	d := &ast.FuncDecl{Name: fn.name, Result: types.Void}
	if fn.retInt {
		d.Result = types.Int
	}
	d.Params = append(d.Params, ast.Param{Name: g.depthVar, Type: types.Int})
	g.bind(&vinfo{name: g.depthVar, kind: vkRO})
	for _, c := range fn.ptrCaps {
		if c > 0 {
			p := g.fresh("p")
			d.Params = append(d.Params, ast.Param{Name: p, Type: types.PointerTo(types.Int)})
			g.bind(&vinfo{name: p, kind: vkPtr, cap: c})
		} else {
			p := g.fresh("n")
			d.Params = append(d.Params, ast.Param{Name: p, Type: types.Int})
			g.bind(&vinfo{name: p, kind: vkInt})
		}
	}

	// Depth guard: the recursion base case.
	guard := &ast.IfStmt{
		Cond: bin(token.LT, id(g.depthVar), lit(1)),
		Then: &ast.BlockStmt{List: []ast.Stmt{g.baseReturn()}},
	}
	body := []ast.Stmt{guard}
	body = append(body, g.stmts(g.k.MaxNest)...)
	if fn.retInt {
		body = append(body, &ast.ReturnStmt{Result: g.intExpr(g.k.MaxExprDepth)})
	}
	d.Body = &ast.BlockStmt{List: body}
	g.scope = nil
	return d
}

func (g *pg) baseReturn() ast.Stmt {
	if g.retInt {
		return &ast.ReturnStmt{Result: lit(int64(g.pick(17) - 8))}
	}
	return &ast.ReturnStmt{}
}

// mainFunc generates main: pointer prologue, body, observation epilogue.
func (g *pg) mainFunc() *ast.FuncDecl {
	g.inMain = true
	g.retInt = false
	g.depthVar = ""
	g.callsLeft = g.pick(g.k.MaxCallSites + 2)
	g.scope = nil

	var body []ast.Stmt
	// Prologue: aim every global pointer at a target with enough capacity
	// before anything can read it.
	for _, p := range g.gptrs {
		body = append(body, &ast.AssignStmt{Op: token.ASSIGN, LHS: id(p.name), RHS: g.globalPtrTarget(p.cap)})
		g.bindGlobalPtr(p)
	}
	body = append(body, g.stmts(g.k.MaxNest)...)
	body = append(body, g.epilogue()...)

	d := &ast.FuncDecl{Name: "main", Result: types.Void, Body: &ast.BlockStmt{List: body}}
	g.scope = nil
	return d
}

// bindGlobalPtr makes an initialized global pointer visible to later code.
func (g *pg) bindGlobalPtr(p *vinfo) {
	for _, v := range g.scope {
		if v == p {
			return
		}
	}
	g.scope = append(g.scope, p)
}

// globalPtrTarget builds a pointer expression with at least capacity c
// rooted in global storage (safe to keep in a global pointer forever).
func (g *pg) globalPtrTarget(c int) ast.Expr {
	if c == 1 && len(g.globals) > 0 && g.chance(0.4) {
		sc := g.globals[g.pick(len(g.globals))]
		return &ast.Unary{Op: token.AMP, X: id(sc.name)}
	}
	var fit []*vinfo
	for _, a := range g.garrays {
		if a.cap >= c {
			fit = append(fit, a)
		}
	}
	if len(fit) == 0 {
		// Cannot happen: array lengths are >= 4 and caps are <= 4, but
		// keep a defensive fallback.
		return &ast.Unary{Op: token.AMP, X: id(g.garrays[0].name)}
	}
	a := fit[g.pick(len(fit))]
	if slack := a.cap - c; slack > 0 && g.chance(0.5) {
		return &ast.Unary{Op: token.AMP, X: &ast.Index{X: id(a.name), Idx: lit(int64(g.pick(slack + 1)))}}
	}
	return id(a.name) // array decay
}

// epilogue prints every observable piece of final state so "final
// globals" are part of the compared output by construction.
func (g *pg) epilogue() []ast.Stmt {
	var out []ast.Stmt
	for _, sc := range g.globals {
		out = append(out, &ast.ExprStmt{X: &ast.Call{Fun: id("print"), Args: []ast.Expr{id(sc.name)}}})
	}
	for _, a := range g.garrays {
		ck := g.fresh("ck")
		iv := g.fresh("ci")
		loop := &ast.ForStmt{
			Init: &ast.DeclStmt{Decl: &ast.VarDecl{Name: iv, Type: types.Int, Init: lit(0)}},
			Cond: bin(token.LT, id(iv), lit(int64(a.cap))),
			Post: &ast.IncDecStmt{Op: token.INC, LHS: id(iv)},
			Body: &ast.BlockStmt{List: []ast.Stmt{
				&ast.AssignStmt{Op: token.ASSIGN, LHS: id(ck),
					RHS: bin(token.PERCENT,
						bin(token.PLUS, bin(token.STAR, id(ck), lit(31)), &ast.Index{X: id(a.name), Idx: id(iv)}),
						lit(1000003))},
			}},
		}
		out = append(out,
			&ast.DeclStmt{Decl: &ast.VarDecl{Name: ck, Type: types.Int, Init: lit(7)}},
			loop,
			&ast.ExprStmt{X: &ast.Call{Fun: id("print"), Args: []ast.Expr{id(ck)}}},
		)
	}
	return out
}

// ---- Scoped helpers ----

func (g *pg) bind(v *vinfo) { g.scope = append(g.scope, v) }

func (g *pg) mark() int { return len(g.scope) }

func (g *pg) release(m int) { g.scope = g.scope[:m] }

// vars returns visible variables matching the filter.
func (g *pg) vars(ok func(*vinfo) bool) []*vinfo {
	var out []*vinfo
	for _, v := range g.scope {
		if ok(v) {
			out = append(out, v)
		}
	}
	return out
}

// ---- Statements ----

// stmts generates a statement list with the block budget, honoring the
// array fill-loop protocol: a declLocal that produced an array registers
// a fill loop that must come next so no element is read uninitialized.
func (g *pg) stmts(nest int) []ast.Stmt {
	n := 1 + g.pick(g.k.MaxStmts)
	var out []ast.Stmt
	for i := 0; i < n; i++ {
		s := g.stmt(nest)
		if s == nil {
			continue
		}
		out = append(out, s)
		if g.pendingFill != nil {
			out = append(out, g.pendingFill)
			g.pendingFill = nil
		}
	}
	if g.chance(g.k.DeadStores) {
		out = append(out, g.deadStore()...)
	}
	if g.chance(g.k.PrintProb) {
		out = append(out, &ast.ExprStmt{X: &ast.Call{Fun: id("print"),
			Args: []ast.Expr{g.intExpr(g.k.MaxExprDepth - 1)}}})
	}
	return out
}

func (g *pg) stmt(nest int) ast.Stmt {
	for tries := 0; tries < 4; tries++ {
		switch g.pick(10) {
		case 0:
			return g.declLocal(nest)
		case 1, 2:
			return g.assignStmt()
		case 3:
			if s := g.incDecStmt(); s != nil {
				return s
			}
		case 4:
			if nest > 0 {
				return g.ifStmt(nest)
			}
		case 5:
			if nest > 0 {
				return g.forStmt(nest)
			}
		case 6:
			if nest > 0 && g.chance(0.5) {
				return g.whileStmt(nest)
			}
		case 7:
			if s := g.callStmt(); s != nil {
				return s
			}
		case 8:
			if len(g.loops) > 0 && g.chance(0.3) {
				// break anywhere in a loop; continue only where the
				// innermost loop is a for (a while counter would be skipped).
				if g.loops[len(g.loops)-1] && g.chance(0.5) {
					return &ast.ContinueStmt{}
				}
				return &ast.BreakStmt{}
			}
		case 9:
			return g.ptrStmt()
		}
	}
	return g.assignStmt()
}

// declLocal declares an int, pointer, or array local. Arrays are filled
// immediately so no element is ever read uninitialized.
func (g *pg) declLocal(nest int) ast.Stmt {
	switch {
	case g.chance(0.2) && nest > 0:
		// Local array plus fill loop, packaged in a block so the shrinker
		// can drop the pair atomically.
		name := g.fresh("la")
		ln := 2 + g.pick(7) // 2..8
		v := &vinfo{name: name, kind: vkArray, cap: ln}
		decl := &ast.DeclStmt{Decl: &ast.VarDecl{Name: name, Type: types.ArrayOf(ln, types.Int)}}
		iv := g.fresh("fi")
		fill := &ast.ForStmt{
			Init: &ast.DeclStmt{Decl: &ast.VarDecl{Name: iv, Type: types.Int, Init: lit(0)}},
			Cond: bin(token.LT, id(iv), lit(int64(ln))),
			Post: &ast.IncDecStmt{Op: token.INC, LHS: id(iv)},
			Body: &ast.BlockStmt{List: []ast.Stmt{
				&ast.AssignStmt{Op: token.ASSIGN,
					LHS: &ast.Index{X: id(name), Idx: id(iv)},
					RHS: bin(token.PLUS, id(iv), lit(int64(g.pick(9))))},
			}},
		}
		g.bind(v)
		// The declaration must live at block level (not inside a nested
		// block) so later statements in this block still see it.
		g.pendingFill = fill
		return decl

	case g.chance(g.k.PtrDensity):
		c := 1 << g.pick(3)
		src := g.ptrExpr(c)
		if src == nil {
			break
		}
		name := g.fresh("lp")
		g.bind(&vinfo{name: name, kind: vkPtr, cap: c})
		return &ast.DeclStmt{Decl: &ast.VarDecl{Name: name, Type: types.PointerTo(types.Int), Init: src}}
	}
	// Build the initializer before binding the name: sem resolves the
	// initializer against the new declaration, so a self-reference would
	// be an uninitialized read.
	init := g.intExpr(g.k.MaxExprDepth - 1)
	name := g.fresh("lv")
	g.bind(&vinfo{name: name, kind: vkInt})
	return &ast.DeclStmt{Decl: &ast.VarDecl{Name: name, Type: types.Int, Init: init}}
}

func (g *pg) assignStmt() ast.Stmt {
	lhs := g.intLvalue()
	if g.chance(0.3) {
		ops := []token.Kind{token.PLUSEQ, token.MINUSEQ, token.STAREQ, token.SLASHEQ, token.PERCENTEQ}
		op := ops[g.pick(len(ops))]
		rhs := g.intExpr(g.k.MaxExprDepth - 1)
		if op == token.SLASHEQ || op == token.PERCENTEQ {
			rhs = bin(token.PIPE, rhs, lit(1)) // never zero
		}
		return &ast.AssignStmt{Op: op, LHS: lhs, RHS: rhs}
	}
	return &ast.AssignStmt{Op: token.ASSIGN, LHS: lhs, RHS: g.intExpr(g.k.MaxExprDepth)}
}

func (g *pg) incDecStmt() ast.Stmt {
	ws := g.vars(func(v *vinfo) bool { return v.kind == vkInt })
	if len(ws) == 0 {
		return nil
	}
	op := token.INC
	if g.chance(0.5) {
		op = token.DEC
	}
	return &ast.IncDecStmt{Op: op, LHS: id(ws[g.pick(len(ws))].name)}
}

func (g *pg) ifStmt(nest int) ast.Stmt {
	s := &ast.IfStmt{Cond: g.condExpr(), Then: g.blockStmt(nest - 1)}
	if g.chance(0.5) {
		s.Else = g.blockStmt(nest - 1)
	}
	return s
}

func (g *pg) forStmt(nest int) ast.Stmt {
	iv := g.fresh("i")
	trip := 1 + g.pick(g.k.MaxLoopTrip)
	g.loops = append(g.loops, true)
	g.bind(&vinfo{name: iv, kind: vkRO})
	body := g.blockStmt(nest - 1)
	g.loops = g.loops[:len(g.loops)-1]
	// iv stays bound: the decl lives in the for-init scope, but code after
	// the loop cannot see it, so unbind it.
	g.unbind(iv)
	return &ast.ForStmt{
		Init: &ast.DeclStmt{Decl: &ast.VarDecl{Name: iv, Type: types.Int, Init: lit(0)}},
		Cond: bin(token.LT, id(iv), lit(int64(trip))),
		Post: &ast.IncDecStmt{Op: token.INC, LHS: id(iv)},
		Body: body,
	}
}

func (g *pg) whileStmt(nest int) ast.Stmt {
	// int w = 0; while (w < trip) { ...; w = w + 1; } — returned as a
	// block so the counter declaration travels with the loop.
	wv := g.fresh("w")
	trip := 1 + g.pick(g.k.MaxLoopTrip)
	g.loops = append(g.loops, false) // continue not allowed: it would skip the counter
	g.bind(&vinfo{name: wv, kind: vkRO})
	body := g.blockStmt(nest - 1)
	g.loops = g.loops[:len(g.loops)-1]
	g.unbind(wv)
	body.List = append(body.List, &ast.AssignStmt{Op: token.ASSIGN, LHS: id(wv),
		RHS: bin(token.PLUS, id(wv), lit(1))})
	return &ast.BlockStmt{List: []ast.Stmt{
		&ast.DeclStmt{Decl: &ast.VarDecl{Name: wv, Type: types.Int, Init: lit(0)}},
		&ast.WhileStmt{Cond: bin(token.LT, id(wv), lit(int64(trip))), Body: body},
	}}
}

func (g *pg) unbind(name string) {
	for i := len(g.scope) - 1; i >= 0; i-- {
		if g.scope[i].name == name {
			g.scope = append(g.scope[:i], g.scope[i+1:]...)
			return
		}
	}
}

func (g *pg) blockStmt(nest int) *ast.BlockStmt {
	m := g.mark()
	list := g.stmts(nest)
	g.release(m)
	return &ast.BlockStmt{List: list}
}

// deadStore emits stores whose values are never observed: a write-only
// fresh local, or an overwritten double store — the fodder dead-marking
// and DCE feed on.
func (g *pg) deadStore() []ast.Stmt {
	init := g.intExpr(2)
	name := g.fresh("ds")
	g.bind(&vinfo{name: name, kind: vkInt})
	return []ast.Stmt{
		&ast.DeclStmt{Decl: &ast.VarDecl{Name: name, Type: types.Int, Init: init}},
		&ast.AssignStmt{Op: token.ASSIGN, LHS: id(name), RHS: g.intExpr(1)},
	}
}

func (g *pg) callStmt() ast.Stmt {
	call := g.callExpr()
	if call == nil {
		return nil
	}
	return &ast.ExprStmt{X: call}
}

// ptrStmt writes through a pointer or re-aims a pointer variable.
func (g *pg) ptrStmt() ast.Stmt {
	ps := g.vars(func(v *vinfo) bool { return v.kind == vkPtr })
	if len(ps) > 0 && g.chance(0.6) {
		p := ps[g.pick(len(ps))]
		var lhs ast.Expr
		if p.cap == 1 || g.chance(0.4) {
			lhs = &ast.Unary{Op: token.STAR, X: id(p.name)}
		} else {
			lhs = &ast.Index{X: id(p.name), Idx: g.boundedIndex(p.cap)}
		}
		return &ast.AssignStmt{Op: token.ASSIGN, LHS: lhs, RHS: g.intExpr(g.k.MaxExprDepth - 1)}
	}
	// Re-aim a global pointer from main (targets must be global storage).
	if g.inMain && len(g.gptrs) > 0 {
		p := g.gptrs[g.pick(len(g.gptrs))]
		return &ast.AssignStmt{Op: token.ASSIGN, LHS: id(p.name), RHS: g.globalPtrTarget(p.cap)}
	}
	return g.assignStmt()
}

// ---- Expressions ----

// condExpr is an int expression used as a branch condition; biased toward
// comparisons so branches are taken both ways.
func (g *pg) condExpr() ast.Expr {
	if g.chance(0.8) {
		ops := []token.Kind{token.LT, token.LEQ, token.GT, token.GEQ, token.EQ, token.NEQ}
		c := bin(ops[g.pick(len(ops))], g.intExpr(2), g.intExpr(2))
		if g.chance(0.25) {
			op := token.LAND
			if g.chance(0.5) {
				op = token.LOR
			}
			c = bin(op, c, bin(token.NEQ, g.intExpr(1), lit(0)))
		}
		return c
	}
	return g.intExpr(2)
}

// intLvalue picks a writable int location: a scalar, an array element, or
// a pointer dereference.
func (g *pg) intLvalue() ast.Expr {
	type cand struct {
		e ast.Expr
	}
	var cands []cand
	for _, v := range g.scope {
		switch v.kind {
		case vkInt:
			cands = append(cands, cand{id(v.name)})
		case vkArray:
			cands = append(cands, cand{&ast.Index{X: id(v.name), Idx: g.boundedIndex(v.cap)}})
		case vkPtr:
			if g.chance(g.k.PtrDensity) {
				cands = append(cands, cand{&ast.Unary{Op: token.STAR, X: id(v.name)}})
			}
		}
	}
	for _, v := range g.globals {
		cands = append(cands, cand{id(v.name)})
	}
	for _, v := range g.garrays {
		if g.chance(0.5) {
			cands = append(cands, cand{&ast.Index{X: id(v.name), Idx: g.boundedIndex(v.cap)}})
		}
	}
	// At least one scalar global always exists, so cands is never empty.
	return cands[g.pick(len(cands))].e
}

// boundedIndex builds an index expression provably in [0, n): either a
// literal, a range-reduced expression (e % n + n) % n, or a masked one.
func (g *pg) boundedIndex(n int) ast.Expr {
	switch {
	case n <= 1:
		return lit(0)
	case g.chance(0.5):
		return lit(int64(g.pick(n)))
	case n&(n-1) == 0 && g.chance(0.5):
		// Power of two: mask.
		return bin(token.AMP, g.intExpr(2), lit(int64(n-1)))
	default:
		e := g.intExpr(2)
		return bin(token.PERCENT,
			bin(token.PLUS, bin(token.PERCENT, e, lit(int64(n))), lit(int64(n))),
			lit(int64(n)))
	}
}

// ptrExpr builds a pointer expression with guaranteed capacity >= c, or
// nil if none is derivable in this scope.
func (g *pg) ptrExpr(c int) ast.Expr {
	type cand struct{ e ast.Expr }
	var cands []cand
	for _, v := range g.scope {
		switch v.kind {
		case vkPtr:
			if v.cap >= c {
				cands = append(cands, cand{id(v.name)})
			}
		case vkArray:
			if v.cap >= c {
				cands = append(cands, cand{id(v.name)})
				if slack := v.cap - c; slack > 0 {
					cands = append(cands, cand{&ast.Unary{Op: token.AMP,
						X: &ast.Index{X: id(v.name), Idx: lit(int64(g.pick(slack + 1)))}}})
				}
			}
		case vkInt:
			if c == 1 {
				cands = append(cands, cand{&ast.Unary{Op: token.AMP, X: id(v.name)}})
			}
		}
	}
	for _, v := range g.garrays {
		if v.cap >= c {
			cands = append(cands, cand{id(v.name)})
		}
	}
	if c == 1 {
		for _, v := range g.globals {
			if g.chance(0.3) {
				cands = append(cands, cand{&ast.Unary{Op: token.AMP, X: id(v.name)}})
			}
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.pick(len(cands))].e
}

// intExpr builds an int-valued expression of bounded depth.
func (g *pg) intExpr(depth int) ast.Expr {
	if depth <= 0 {
		return g.intLeaf()
	}
	switch g.pick(12) {
	case 0, 1:
		return g.intLeaf()
	case 2, 3, 4:
		ops := []token.Kind{token.PLUS, token.MINUS, token.STAR, token.AMP, token.PIPE, token.CARET}
		return bin(ops[g.pick(len(ops))], g.intExpr(depth-1), g.intExpr(depth-1))
	case 5:
		op := token.SLASH
		if g.chance(0.5) {
			op = token.PERCENT
		}
		return bin(op, g.intExpr(depth-1), bin(token.PIPE, g.intExpr(depth-1), lit(1)))
	case 6:
		op := token.SHL
		if g.chance(0.5) {
			op = token.SHR
		}
		return bin(op, g.intExpr(depth-1), bin(token.AMP, g.intExpr(depth-1), lit(7)))
	case 7:
		ops := []token.Kind{token.LT, token.LEQ, token.GT, token.GEQ, token.EQ, token.NEQ}
		return bin(ops[g.pick(len(ops))], g.intExpr(depth-1), g.intExpr(depth-1))
	case 8:
		if g.chance(0.5) {
			return &ast.Unary{Op: token.MINUS, X: g.intExpr(depth - 1)}
		}
		return &ast.Unary{Op: token.NOT, X: g.intExpr(depth - 1)}
	case 9:
		// Memory read: array element or pointer load.
		if e := g.memRead(); e != nil {
			return e
		}
	case 10:
		op := token.LAND
		if g.chance(0.5) {
			op = token.LOR
		}
		return bin(op, g.intExpr(depth-1), g.intExpr(depth-1))
	case 11:
		if call := g.callExprInt(); call != nil {
			return call
		}
	}
	return g.intLeaf()
}

func (g *pg) intLeaf() ast.Expr {
	ints := g.vars(func(v *vinfo) bool { return v.kind == vkInt || v.kind == vkRO })
	pool := len(ints) + len(g.globals)
	if pool > 0 && g.chance(0.6) {
		n := g.pick(pool)
		if n < len(ints) {
			return id(ints[n].name)
		}
		return id(g.globals[n-len(ints)].name)
	}
	return lit(int64(g.pick(129) - 64))
}

// memRead builds an array or pointer read, or nil.
func (g *pg) memRead() ast.Expr {
	type cand struct{ e ast.Expr }
	var cands []cand
	for _, v := range g.scope {
		switch v.kind {
		case vkArray:
			cands = append(cands, cand{&ast.Index{X: id(v.name), Idx: g.boundedIndex(v.cap)}})
		case vkPtr:
			if v.cap > 1 && g.chance(0.5) {
				cands = append(cands, cand{&ast.Index{X: id(v.name), Idx: g.boundedIndex(v.cap)}})
			} else {
				cands = append(cands, cand{&ast.Unary{Op: token.STAR, X: id(v.name)}})
			}
		}
	}
	for _, v := range g.garrays {
		cands = append(cands, cand{&ast.Index{X: id(v.name), Idx: g.boundedIndex(v.cap)}})
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[g.pick(len(cands))].e
}

// ---- Calls ----

// depthArg is the recursion budget passed to a callee. Inside a loop the
// budget is halved-and-decremented so iteration count cannot multiply
// into exponential call trees.
func (g *pg) depthArg() ast.Expr {
	if g.inMain {
		d := g.k.CallDepth
		if len(g.loops) > 0 {
			// Halve the budget for call sites inside loops so the trip
			// count cannot multiply a full-depth call tree.
			if d = d / 2; d < 1 {
				d = 1
			}
		}
		return lit(int64(d))
	}
	d := bin(token.MINUS, id(g.depthVar), lit(1))
	if len(g.loops) > 0 {
		d = bin(token.SLASH, d, lit(2))
	}
	return d
}

// callExpr builds a call to any helper (void or int) for statement
// position, or nil when no call budget or helpers remain.
func (g *pg) callExpr() ast.Expr {
	if g.callsLeft <= 0 || len(g.fns) == 0 {
		return nil
	}
	fn := g.fns[g.pick(len(g.fns))]
	return g.buildCall(fn)
}

// callExprInt builds a call to an int-returning helper, or nil.
func (g *pg) callExprInt() ast.Expr {
	if g.callsLeft <= 0 {
		return nil
	}
	var ints []*fninfo
	for _, fn := range g.fns {
		if fn.retInt {
			ints = append(ints, fn)
		}
	}
	if len(ints) == 0 {
		return nil
	}
	return g.buildCall(ints[g.pick(len(ints))])
}

func (g *pg) buildCall(fn *fninfo) ast.Expr {
	g.callsLeft--
	args := []ast.Expr{g.depthArg()}
	for _, c := range fn.ptrCaps {
		if c > 0 {
			p := g.ptrExpr(c)
			if p == nil {
				// Fall back to a global array, which always has capacity.
				p = id(g.garrays[0].name)
			}
			args = append(args, p)
		} else {
			args = append(args, g.intExpr(2))
		}
	}
	return &ast.Call{Fun: id(fn.name), Args: args}
}
