// Package refint is the deliberately naive reference interpreter for MC:
// a tree-walking evaluator over the raw AST with no registers, no cache,
// no IR and no optimizer. It defines the ground-truth observable behavior
// the whole compiler pipeline — irgen, optimizer, allocator, codegen, VM,
// cache model — must reproduce bit-for-bit: printed output, final global
// state, and termination under a step budget.
//
// Beyond plain execution it is a dynamic soundness checker: every pointer
// value carries its provenance (the allocation it points into), every
// storage word carries an initialized bit, and frames are poisoned on
// return. A program that reads uninitialized storage, dereferences a null
// or dangling pointer, indexes outside the pointed-to object, or compares
// pointers into different objects gets a structured *Error instead of a
// layout-dependent answer. The differential harness (internal/difftest)
// classifies such programs as invalid and excludes them from comparison,
// exactly the way exact-analysis work pairs a static result with an
// executable oracle.
//
// Evaluation order deliberately mirrors internal/irgen (operands left to
// right, assignment targets before right-hand sides, compound-assignment
// loads before right-hand sides, call arguments left to right) so that a
// program whose expressions have side effects — a call that prints, or
// writes a global read elsewhere in the same statement — observes the
// same interleaving in both worlds.
package refint

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/memimg"
	"repro/internal/token"
	"repro/internal/types"
)

// Config bounds a run.
type Config struct {
	MaxSteps  int64 // AST evaluation steps (default 2,000,000)
	MemWords  int   // storage words for globals + frames (default 1<<20)
	MaxFrames int   // call-stack depth limit (default 256)
}

func (c Config) normalized() Config {
	if c.MaxSteps == 0 {
		c.MaxSteps = 2_000_000
	}
	if c.MemWords == 0 {
		c.MemWords = 1 << 20
	}
	if c.MaxFrames == 0 {
		c.MaxFrames = 256
	}
	return c
}

// Result is the observable outcome of a successful run.
type Result struct {
	Output  string             // everything printed by print/printchar
	Steps   int64              // AST evaluation steps consumed
	Globals map[string][]int64 // final global state: scalars have length 1
}

// ErrKind classifies interpreter errors. Budget and DivZero can occur in
// well-defined programs; the remaining kinds mark the program itself as
// invalid (its behavior would be layout- or garbage-dependent, so no
// compiled run can be held to it).
type ErrKind int

// Error kinds.
const (
	ErrBudget        ErrKind = iota // step budget exhausted
	ErrDivZero                      // division or remainder by zero
	ErrUninit                       // read of never-written storage
	ErrNull                         // dereference through a non-pointer value
	ErrDangling                     // dereference into a returned frame
	ErrOutOfBounds                  // dereference outside the pointed-to object
	ErrCrossObject                  // relational compare / difference of unrelated pointers
	ErrStackOverflow                // frame area or call depth exhausted
	ErrBadProgram                   // ill-formed program reached the interpreter
)

func (k ErrKind) String() string {
	switch k {
	case ErrBudget:
		return "budget"
	case ErrDivZero:
		return "div-zero"
	case ErrUninit:
		return "uninit-read"
	case ErrNull:
		return "null-deref"
	case ErrDangling:
		return "dangling-deref"
	case ErrOutOfBounds:
		return "out-of-bounds"
	case ErrCrossObject:
		return "cross-object"
	case ErrStackOverflow:
		return "stack-overflow"
	case ErrBadProgram:
		return "bad-program"
	}
	return "?"
}

// Error is a structured interpreter error.
type Error struct {
	Kind ErrKind
	Pos  token.Pos
	Msg  string
}

func (e *Error) Error() string {
	if e.Pos.Line > 0 {
		return fmt.Sprintf("refint: %s: %s at %s", e.Kind, e.Msg, e.Pos)
	}
	return fmt.Sprintf("refint: %s: %s", e.Kind, e.Msg)
}

// Invalid reports whether err marks the program itself as having no
// defined reference behavior (as opposed to a budget stop or an ordinary
// arithmetic trap).
func Invalid(err error) bool {
	if e, ok := err.(*Error); ok {
		switch e.Kind {
		case ErrUninit, ErrNull, ErrDangling, ErrOutOfBounds, ErrCrossObject, ErrBadProgram:
			return true
		}
	}
	return false
}

// alloc is one live (or dead) storage object: a global, or one variable of
// one frame. Pointer values keep a reference to their alloc forever, which
// is how dangling and out-of-bounds dereferences are detected after the
// frame is gone.
type alloc struct {
	name  string
	base  int64 // first word
	limit int64 // one past the last word
	dead  bool
}

// value is a runtime value: a machine integer, or a pointer carrying the
// element type it strides over and the allocation it points into. Arrays
// evaluate to decayed pointers. obj == nil means "not a pointer" (plain
// int, or a null pointer copied out of zeroed global storage).
type value struct {
	i    int64
	elem *types.Type // pointer element type; nil for ints
	obj  *alloc
}

// cell is one word of storage with its initialized bit and, when the word
// holds a pointer, the pointer's provenance.
type cell struct {
	v    value
	init bool
}

// place is a resolved storage location: the address of an lvalue together
// with its static type and provenance.
type place struct {
	addr int64
	t    *types.Type
	obj  *alloc
}

// binding associates a name with its storage in a scope.
type binding struct {
	t *types.Type
	a *alloc
}

type interp struct {
	cfg    Config
	mem    *memimg.Image[cell] // a zero cell is uninitialized
	out    strings.Builder
	steps  int64
	frames int
	sp     int64 // frame bump pointer, grows downward from cfg.MemWords

	funcs    map[string]*ast.FuncDecl
	globals  []*binding // in declaration order, for the final snapshot
	gnames   []string
	topScope map[string]*binding
}

// control models statement-level non-local exits.
type control int

const (
	ctlNext control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// Run interprets the file starting at main().
func Run(file *ast.File, cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	in := &interp{
		cfg:      cfg,
		mem:      memimg.New[cell](cfg.MemWords),
		sp:       int64(cfg.MemWords),
		funcs:    make(map[string]*ast.FuncDecl),
		topScope: make(map[string]*binding),
	}

	// Globals from word 64 upward; word 0 stays unused so a null pointer
	// never aliases a variable.
	next := int64(64)
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.VarDecl:
			if _, dup := in.topScope[d.Name]; dup {
				return nil, in.errf(ErrBadProgram, d.Pos(), "global %s redeclared", d.Name)
			}
			words := int64(d.Type.Words())
			if words <= 0 {
				return nil, in.errf(ErrBadProgram, d.Pos(), "global %s has no storage", d.Name)
			}
			a := &alloc{name: d.Name, base: next, limit: next + words}
			if a.limit >= in.sp {
				return nil, in.errf(ErrStackOverflow, d.Pos(), "globals exceed memory")
			}
			for w := a.base; w < a.limit; w++ {
				in.mem.Store(w, cell{init: true}) // globals are zero-initialized
			}
			if d.Init != nil {
				v, ok := constInit(d.Init)
				if !ok {
					return nil, in.errf(ErrBadProgram, d.Pos(), "global %s has a non-constant initializer", d.Name)
				}
				in.mem.Store(a.base, cell{v: value{i: v}, init: true})
			}
			b := &binding{t: d.Type, a: a}
			in.topScope[d.Name] = b
			in.globals = append(in.globals, b)
			in.gnames = append(in.gnames, d.Name)
			next = a.limit
		case *ast.FuncDecl:
			if _, dup := in.funcs[d.Name]; dup {
				return nil, in.errf(ErrBadProgram, d.Pos(), "function %s redeclared", d.Name)
			}
			in.funcs[d.Name] = d
		}
	}

	main, ok := in.funcs["main"]
	if !ok {
		return nil, in.errf(ErrBadProgram, token.Pos{}, "program has no main function")
	}
	if len(main.Params) != 0 {
		return nil, in.errf(ErrBadProgram, main.Pos(), "main must take no parameters")
	}
	if _, err := in.call(main, nil, main.Pos()); err != nil {
		return nil, err
	}

	res := &Result{Output: in.out.String(), Steps: in.steps, Globals: make(map[string][]int64)}
	for i, b := range in.globals {
		vals := make([]int64, b.a.limit-b.a.base)
		for w := range vals {
			vals[w] = in.mem.Load(b.a.base + int64(w)).v.i
		}
		res.Globals[in.gnames[i]] = vals
	}
	return res, nil
}

// constInit evaluates the constant-expression subset sem accepts for
// global initializers.
func constInit(e ast.Expr) (int64, bool) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, true
	case *ast.Unary:
		v, ok := constInit(e.X)
		if !ok {
			return 0, false
		}
		switch e.Op {
		case token.MINUS:
			return -v, true
		case token.NOT:
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case *ast.Binary:
		a, ok1 := constInit(e.X)
		b, ok2 := constInit(e.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch e.Op {
		case token.PLUS:
			return a + b, true
		case token.MINUS:
			return a - b, true
		case token.STAR:
			return a * b, true
		case token.SLASH:
			if b == 0 {
				return 0, false
			}
			return wrapDiv(a, b), true
		case token.PERCENT:
			if b == 0 {
				return 0, false
			}
			return wrapRem(a, b), true
		case token.SHL:
			if b < 0 || b > 62 {
				return 0, false
			}
			return a << uint(b), true
		case token.SHR:
			if b < 0 || b > 62 {
				return 0, false
			}
			return a >> uint(b), true
		case token.AMP:
			return a & b, true
		case token.PIPE:
			return a | b, true
		case token.CARET:
			return a ^ b, true
		}
	}
	return 0, false
}

func (in *interp) errf(k ErrKind, pos token.Pos, format string, args ...any) *Error {
	return &Error{Kind: k, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// tick charges one evaluation step.
func (in *interp) tick(pos token.Pos) error {
	in.steps++
	if in.steps > in.cfg.MaxSteps {
		return &Error{Kind: ErrBudget, Pos: pos,
			Msg: fmt.Sprintf("step budget of %d exhausted", in.cfg.MaxSteps)}
	}
	return nil
}

// ---- Frames and scopes ----

type frame struct {
	in      *interp
	scopes  []map[string]*binding
	allocs  []*alloc
	savedSP int64
	ret     value
}

func (in *interp) call(fn *ast.FuncDecl, args []value, at token.Pos) (value, error) {
	if in.frames >= in.cfg.MaxFrames {
		return value{}, in.errf(ErrStackOverflow, at, "call depth exceeds %d frames in call to %s",
			in.cfg.MaxFrames, fn.Name)
	}
	if len(args) != len(fn.Params) {
		return value{}, in.errf(ErrBadProgram, at, "%s called with %d args, want %d",
			fn.Name, len(args), len(fn.Params))
	}
	in.frames++
	fr := &frame{in: in, savedSP: in.sp}
	fr.push()
	defer func() {
		fr.pop()
		// Poison the frame's words (uninit and provenance-free), so every
		// word below the stack pointer is a zero cell and declare needs
		// no store. A word already zero is skipped: the image does not
		// grow for storage the frame never wrote.
		for _, a := range fr.allocs {
			a.dead = true
			for w := a.base; w < a.limit; w++ {
				if in.mem.Load(w) != (cell{}) {
					in.mem.Store(w, cell{})
				}
			}
		}
		in.sp = fr.savedSP
		in.frames--
	}()

	for i, p := range fn.Params {
		b, err := fr.declare(p.Name, p.Type, p.NamePos)
		if err != nil {
			return value{}, err
		}
		in.mem.Store(b.a.base, cell{v: args[i], init: true})
	}

	ctl, err := fr.block(fn.Body, false)
	if err != nil {
		return value{}, err
	}
	if ctl == ctlReturn {
		return fr.ret, nil
	}
	// Falling off the end of an int function returns 0, exactly as irgen's
	// synthesized epilogue does.
	return value{}, nil
}

func (fr *frame) push() { fr.scopes = append(fr.scopes, make(map[string]*binding)) }
func (fr *frame) pop()  { fr.scopes = fr.scopes[:len(fr.scopes)-1] }

// declare allocates storage for a new local in the current scope. The
// words start uninitialized: below the stack pointer every word is a
// zero cell (see call's poisoning).
func (fr *frame) declare(name string, t *types.Type, pos token.Pos) (*binding, error) {
	in := fr.in
	words := int64(t.Words())
	if words <= 0 {
		return nil, in.errf(ErrBadProgram, pos, "variable %s has no storage", name)
	}
	base := in.sp - words
	if base < int64(64) || (len(in.globals) > 0 && base < in.globals[len(in.globals)-1].a.limit) {
		return nil, in.errf(ErrStackOverflow, pos, "frame storage exhausted declaring %s", name)
	}
	in.sp = base
	a := &alloc{name: name, base: base, limit: base + words}
	fr.allocs = append(fr.allocs, a)
	b := &binding{t: t, a: a}
	top := fr.scopes[len(fr.scopes)-1]
	if _, dup := top[name]; dup {
		return nil, in.errf(ErrBadProgram, pos, "%s redeclared in the same scope", name)
	}
	top[name] = b
	return b, nil
}

func (fr *frame) lookup(name string) *binding {
	for i := len(fr.scopes) - 1; i >= 0; i-- {
		if b, ok := fr.scopes[i][name]; ok {
			return b
		}
	}
	return fr.in.topScope[name]
}

// ---- Statements ----

func (fr *frame) block(b *ast.BlockStmt, ownScope bool) (control, error) {
	if ownScope {
		fr.push()
		defer fr.pop()
	}
	for _, s := range b.List {
		ctl, err := fr.stmt(s)
		if err != nil || ctl != ctlNext {
			return ctl, err
		}
	}
	return ctlNext, nil
}

func (fr *frame) stmt(s ast.Stmt) (control, error) {
	in := fr.in
	if err := in.tick(s.Pos()); err != nil {
		return ctlNext, err
	}
	switch s := s.(type) {
	case *ast.DeclStmt:
		return ctlNext, fr.declStmt(s.Decl)

	case *ast.AssignStmt:
		return ctlNext, fr.assign(s)

	case *ast.IncDecStmt:
		pl, err := fr.lvalue(s.LHS)
		if err != nil {
			return ctlNext, err
		}
		old, err := fr.load(pl, s.Pos())
		if err != nil {
			return ctlNext, err
		}
		step := int64(1)
		if pl.t.IsPointer() {
			step = int64(pl.t.Elem.Words())
		}
		nv := old
		if s.Op == token.DEC {
			nv.i = old.i - step
		} else {
			nv.i = old.i + step
		}
		return ctlNext, fr.store(pl, nv, s.Pos())

	case *ast.ExprStmt:
		_, err := fr.expr(s.X)
		return ctlNext, err

	case *ast.BlockStmt:
		return fr.block(s, true)

	case *ast.IfStmt:
		c, err := fr.expr(s.Cond)
		if err != nil {
			return ctlNext, err
		}
		if c.i != 0 {
			return fr.stmt(s.Then)
		}
		if s.Else != nil {
			return fr.stmt(s.Else)
		}
		return ctlNext, nil

	case *ast.WhileStmt:
		for {
			c, err := fr.expr(s.Cond)
			if err != nil {
				return ctlNext, err
			}
			if c.i == 0 {
				return ctlNext, nil
			}
			ctl, err := fr.stmt(s.Body)
			if err != nil {
				return ctlNext, err
			}
			if ctl == ctlBreak {
				return ctlNext, nil
			}
			if ctl == ctlReturn {
				return ctl, nil
			}
			if err := in.tick(s.Pos()); err != nil {
				return ctlNext, err
			}
		}

	case *ast.ForStmt:
		fr.push()
		defer fr.pop()
		if s.Init != nil {
			if ctl, err := fr.stmt(s.Init); err != nil || ctl != ctlNext {
				return ctl, err
			}
		}
		for {
			if s.Cond != nil {
				c, err := fr.expr(s.Cond)
				if err != nil {
					return ctlNext, err
				}
				if c.i == 0 {
					return ctlNext, nil
				}
			}
			ctl, err := fr.stmt(s.Body)
			if err != nil {
				return ctlNext, err
			}
			if ctl == ctlBreak {
				return ctlNext, nil
			}
			if ctl == ctlReturn {
				return ctl, nil
			}
			if s.Post != nil {
				if ctl, err := fr.stmt(s.Post); err != nil || ctl != ctlNext {
					return ctl, err
				}
			}
			if err := in.tick(s.Pos()); err != nil {
				return ctlNext, err
			}
		}

	case *ast.ReturnStmt:
		if s.Result != nil {
			v, err := fr.expr(s.Result)
			if err != nil {
				return ctlNext, err
			}
			fr.ret = v
		} else {
			fr.ret = value{}
		}
		return ctlReturn, nil

	case *ast.BreakStmt:
		return ctlBreak, nil
	case *ast.ContinueStmt:
		return ctlContinue, nil
	}
	return ctlNext, in.errf(ErrBadProgram, s.Pos(), "unhandled statement %T", s)
}

func (fr *frame) declStmt(d *ast.VarDecl) error {
	// Declare first, then evaluate the initializer: sem resolves names in
	// the initializer against the new declaration, so "int x = x;" reads
	// the fresh (uninitialized) x — which this interpreter then reports as
	// an uninitialized read rather than silently producing a value.
	b, err := fr.declare(d.Name, d.Type, d.Pos())
	if err != nil {
		return err
	}
	if d.Init != nil {
		v, err := fr.expr(d.Init)
		if err != nil {
			return err
		}
		fr.in.mem.Store(b.a.base, cell{v: v, init: true})
	}
	return nil
}

func (fr *frame) assign(s *ast.AssignStmt) error {
	in := fr.in
	// Address first, then (for compound ops) the old value, then the RHS:
	// the same order irgen emits, observable when the RHS calls a function
	// that writes the target.
	pl, err := fr.lvalue(s.LHS)
	if err != nil {
		return err
	}
	if s.Op == token.ASSIGN {
		v, err := fr.expr(s.RHS)
		if err != nil {
			return err
		}
		return fr.store(pl, v, s.Pos())
	}
	old, err := fr.load(pl, s.Pos())
	if err != nil {
		return err
	}
	rhs, err := fr.expr(s.RHS)
	if err != nil {
		return err
	}
	if pl.t.IsPointer() {
		// Pointer += / -= advances whole elements.
		w := int64(pl.t.Elem.Words())
		nv := old
		if s.Op == token.MINUSEQ {
			nv.i = old.i - rhs.i*w
		} else {
			nv.i = old.i + rhs.i*w
		}
		return fr.store(pl, nv, s.Pos())
	}
	var bin token.Kind
	switch s.Op {
	case token.PLUSEQ:
		bin = token.PLUS
	case token.MINUSEQ:
		bin = token.MINUS
	case token.STAREQ:
		bin = token.STAR
	case token.SLASHEQ:
		bin = token.SLASH
	case token.PERCENTEQ:
		bin = token.PERCENT
	default:
		return in.errf(ErrBadProgram, s.Pos(), "unhandled assignment operator %s", s.Op)
	}
	nvi, err := fr.intBin(bin, old.i, rhs.i, s.Pos())
	if err != nil {
		return err
	}
	return fr.store(pl, value{i: nvi}, s.Pos())
}

// ---- Places, loads, stores ----

// lvalue resolves an assignable expression to a place.
func (fr *frame) lvalue(e ast.Expr) (place, error) {
	in := fr.in
	switch e := e.(type) {
	case *ast.Ident:
		b := fr.lookup(e.Name)
		if b == nil || b.a == nil {
			return place{}, in.errf(ErrBadProgram, e.Pos(), "%s is not a variable", e.Name)
		}
		return place{addr: b.a.base, t: b.t, obj: b.a}, nil

	case *ast.Index:
		// Base before index, as irgen lowers element addresses.
		base, err := fr.expr(e.X) // arrays decay to pointers here
		if err != nil {
			return place{}, err
		}
		if base.elem == nil {
			return place{}, in.errf(ErrNull, e.Pos(), "indexing a non-pointer value")
		}
		idx, err := fr.expr(e.Idx)
		if err != nil {
			return place{}, err
		}
		addr := base.i + idx.i*int64(base.elem.Words())
		return place{addr: addr, t: base.elem, obj: base.obj}, nil

	case *ast.Unary:
		if e.Op == token.STAR {
			p, err := fr.expr(e.X)
			if err != nil {
				return place{}, err
			}
			if p.elem == nil {
				return place{}, in.errf(ErrNull, e.Pos(), "dereference of a non-pointer value")
			}
			return place{addr: p.i, t: p.elem, obj: p.obj}, nil
		}
	}
	return place{}, in.errf(ErrBadProgram, e.Pos(), "invalid assignment target")
}

// checkPlace validates a place for an actual memory access.
func (fr *frame) checkPlace(pl place, pos token.Pos) error {
	in := fr.in
	if pl.obj == nil {
		return in.errf(ErrNull, pos, "access through a null or integer-valued pointer")
	}
	if pl.obj.dead {
		return in.errf(ErrDangling, pos, "access into returned frame of %s", pl.obj.name)
	}
	words := int64(1)
	if pl.t != nil {
		if w := int64(pl.t.Words()); w > 0 {
			words = w
		}
	}
	if pl.addr < pl.obj.base || pl.addr+words > pl.obj.limit {
		return in.errf(ErrOutOfBounds, pos, "address %d outside %s [%d,%d)",
			pl.addr, pl.obj.name, pl.obj.base, pl.obj.limit)
	}
	return nil
}

// load reads a scalar from a place; array-typed places decay to pointers
// without touching memory.
func (fr *frame) load(pl place, pos token.Pos) (value, error) {
	in := fr.in
	if pl.t.IsArray() {
		if err := fr.checkPlace(pl, pos); err != nil {
			return value{}, err
		}
		return value{i: pl.addr, elem: pl.t.Elem, obj: pl.obj}, nil
	}
	if err := fr.checkPlace(pl, pos); err != nil {
		return value{}, err
	}
	c := in.mem.Load(pl.addr)
	if !c.init {
		return value{}, in.errf(ErrUninit, pos, "read of uninitialized %s word %d", pl.obj.name, pl.addr)
	}
	return c.v, nil
}

func (fr *frame) store(pl place, v value, pos token.Pos) error {
	in := fr.in
	if pl.t.IsArray() {
		return in.errf(ErrBadProgram, pos, "cannot assign to array %s", pl.obj.name)
	}
	if err := fr.checkPlace(pl, pos); err != nil {
		return err
	}
	in.mem.Store(pl.addr, cell{v: v, init: true})
	return nil
}

// ---- Expressions ----

func (fr *frame) expr(e ast.Expr) (value, error) {
	in := fr.in
	if err := in.tick(e.Pos()); err != nil {
		return value{}, err
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return value{i: e.Value}, nil

	case *ast.Ident:
		b := fr.lookup(e.Name)
		if b == nil || b.a == nil {
			return value{}, in.errf(ErrBadProgram, e.Pos(), "undefined or non-value name %s", e.Name)
		}
		return fr.load(place{addr: b.a.base, t: b.t, obj: b.a}, e.Pos())

	case *ast.Unary:
		switch e.Op {
		case token.MINUS:
			x, err := fr.expr(e.X)
			if err != nil {
				return value{}, err
			}
			return value{i: -x.i}, nil
		case token.NOT:
			x, err := fr.expr(e.X)
			if err != nil {
				return value{}, err
			}
			if x.i == 0 {
				return value{i: 1}, nil
			}
			return value{i: 0}, nil
		case token.STAR:
			p, err := fr.expr(e.X)
			if err != nil {
				return value{}, err
			}
			if p.elem == nil {
				return value{}, in.errf(ErrNull, e.Pos(), "dereference of a non-pointer value")
			}
			return fr.load(place{addr: p.i, t: p.elem, obj: p.obj}, e.Pos())
		case token.AMP:
			pl, err := fr.address(e.X)
			if err != nil {
				return value{}, err
			}
			return value{i: pl.addr, elem: pl.t, obj: pl.obj}, nil
		}
		return value{}, in.errf(ErrBadProgram, e.Pos(), "invalid unary operator %s", e.Op)

	case *ast.Binary:
		return fr.binary(e)

	case *ast.Index:
		pl, err := fr.lvalue(e)
		if err != nil {
			return value{}, err
		}
		return fr.load(pl, e.Pos())

	case *ast.Call:
		return fr.callExpr(e)
	}
	return value{}, in.errf(ErrBadProgram, e.Pos(), "unhandled expression %T", e)
}

// address resolves &x targets: identifiers, elements, and *p.
func (fr *frame) address(e ast.Expr) (place, error) {
	in := fr.in
	switch e := e.(type) {
	case *ast.Ident, *ast.Index:
		return fr.lvalue(e)
	case *ast.Unary:
		if e.Op == token.STAR {
			p, err := fr.expr(e.X) // &*p == p
			if err != nil {
				return place{}, err
			}
			if p.elem == nil {
				return place{}, in.errf(ErrNull, e.Pos(), "dereference of a non-pointer value")
			}
			return place{addr: p.i, t: p.elem, obj: p.obj}, nil
		}
	}
	return place{}, in.errf(ErrBadProgram, e.Pos(), "cannot take address of this expression")
}

func (fr *frame) binary(e *ast.Binary) (value, error) {
	in := fr.in
	switch e.Op {
	case token.LAND, token.LOR:
		x, err := fr.expr(e.X)
		if err != nil {
			return value{}, err
		}
		if e.Op == token.LAND && x.i == 0 {
			return value{i: 0}, nil
		}
		if e.Op == token.LOR && x.i != 0 {
			return value{i: 1}, nil
		}
		y, err := fr.expr(e.Y)
		if err != nil {
			return value{}, err
		}
		if y.i != 0 {
			return value{i: 1}, nil
		}
		return value{i: 0}, nil
	}

	x, err := fr.expr(e.X)
	if err != nil {
		return value{}, err
	}
	y, err := fr.expr(e.Y)
	if err != nil {
		return value{}, err
	}

	// Pointer arithmetic and comparisons.
	xp, yp := x.elem != nil, y.elem != nil
	switch e.Op {
	case token.PLUS:
		if xp && !yp {
			return value{i: x.i + y.i*int64(x.elem.Words()), elem: x.elem, obj: x.obj}, nil
		}
		if !xp && yp {
			return value{i: y.i + x.i*int64(y.elem.Words()), elem: y.elem, obj: y.obj}, nil
		}
	case token.MINUS:
		if xp && !yp {
			return value{i: x.i - y.i*int64(x.elem.Words()), elem: x.elem, obj: x.obj}, nil
		}
		if xp && yp {
			if x.obj != y.obj {
				return value{}, in.errf(ErrCrossObject, e.Pos(), "difference of pointers into different objects")
			}
			w := int64(x.elem.Words())
			if w == 0 {
				w = 1
			}
			return value{i: (x.i - y.i) / w}, nil
		}
	case token.EQ, token.NEQ:
		// Equality of unrelated pointers is layout-independent (two live
		// objects never share an address), so it stays defined.
		if xp || yp {
			res := x.i == y.i
			if e.Op == token.NEQ {
				res = !res
			}
			return value{i: b2i(res)}, nil
		}
	case token.LT, token.GT, token.LEQ, token.GEQ:
		if xp || yp {
			if x.obj != y.obj {
				return value{}, in.errf(ErrCrossObject, e.Pos(), "relational compare of pointers into different objects")
			}
			return value{i: b2i(cmp(e.Op, x.i, y.i))}, nil
		}
	}

	if xp || yp {
		return value{}, in.errf(ErrBadProgram, e.Pos(), "invalid pointer operands for %s", e.Op)
	}
	v, err := fr.intBin(e.Op, x.i, y.i, e.Pos())
	if err != nil {
		return value{}, err
	}
	return value{i: v}, nil
}

func cmp(op token.Kind, a, b int64) bool {
	switch op {
	case token.LT:
		return a < b
	case token.GT:
		return a > b
	case token.LEQ:
		return a <= b
	case token.GEQ:
		return a >= b
	}
	return false
}

func b2i(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// wrapDiv is two's-complement division: MinInt64 / -1 wraps to MinInt64
// instead of faulting, matching the UM machine's (and the IR
// interpreter's) defined overflow semantics.
func wrapDiv(a, b int64) int64 {
	if b == -1 {
		return -a // wraps for MinInt64 without the Go runtime panic
	}
	return a / b
}

// wrapRem is the remainder counterpart: MinInt64 % -1 == 0.
func wrapRem(a, b int64) int64 {
	if b == -1 {
		return 0
	}
	return a % b
}

func (fr *frame) intBin(op token.Kind, a, b int64, pos token.Pos) (int64, error) {
	switch op {
	case token.PLUS:
		return a + b, nil
	case token.MINUS:
		return a - b, nil
	case token.STAR:
		return a * b, nil
	case token.SLASH:
		if b == 0 {
			return 0, fr.in.errf(ErrDivZero, pos, "division by zero")
		}
		return wrapDiv(a, b), nil
	case token.PERCENT:
		if b == 0 {
			return 0, fr.in.errf(ErrDivZero, pos, "remainder by zero")
		}
		return wrapRem(a, b), nil
	case token.AMP:
		return a & b, nil
	case token.PIPE:
		return a | b, nil
	case token.CARET:
		return a ^ b, nil
	case token.SHL:
		return a << uint64(b&63), nil
	case token.SHR:
		return a >> uint64(b&63), nil
	case token.EQ:
		return b2i(a == b), nil
	case token.NEQ:
		return b2i(a != b), nil
	case token.LT, token.GT, token.LEQ, token.GEQ:
		return b2i(cmp(op, a, b)), nil
	}
	return 0, fr.in.errf(ErrBadProgram, pos, "unhandled binary operator %s", op)
}

func (fr *frame) callExpr(e *ast.Call) (value, error) {
	in := fr.in
	name := e.Fun.Name
	// Builtins.
	if name == "print" || name == "printchar" {
		if len(e.Args) != 1 {
			return value{}, in.errf(ErrBadProgram, e.Pos(), "%s expects 1 argument", name)
		}
		v, err := fr.expr(e.Args[0])
		if err != nil {
			return value{}, err
		}
		if name == "printchar" {
			in.out.WriteByte(byte(v.i))
		} else {
			fmt.Fprintf(&in.out, "%d\n", v.i)
		}
		return value{}, nil
	}
	fn, ok := in.funcs[name]
	if !ok {
		return value{}, in.errf(ErrBadProgram, e.Pos(), "call to unknown function %s", name)
	}
	args := make([]value, 0, len(e.Args))
	for _, a := range e.Args {
		v, err := fr.expr(a)
		if err != nil {
			return value{}, err
		}
		args = append(args, v)
	}
	return in.call(fn, args, e.Pos())
}
