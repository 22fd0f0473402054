// Package irgen lowers a type-checked MC AST into the three-address IR.
//
// Storage policy (the front half of the paper's unified model):
//   - scalar locals and parameters whose address is never taken live in
//     virtual registers and never touch memory (until the allocator spills);
//   - address-taken scalars and all arrays get frame storage;
//   - globals get static storage.
//
// Every Load/Store is created with a MemRef recording the statically known
// object so the alias and unified-management passes can classify it.
package irgen

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/token"
)

// Options controls lowering policy.
type Options struct {
	// StackScalars forces every scalar local and parameter into frame
	// memory instead of a virtual register, mimicking the simpler
	// compilers of the paper's era (and -O0 style code). The unified
	// model then classifies those frame words as unambiguous bypass
	// references, reproducing the reference mix the paper measured.
	StackScalars bool
}

// Build lowers the checked program to IR.
func Build(info *sem.Info) (*ir.Program, error) {
	return BuildWithOptions(info, Options{})
}

// BuildWithOptions lowers the checked program with explicit policy.
func BuildWithOptions(info *sem.Info, opts Options) (*ir.Program, error) {
	prog := &ir.Program{Sem: info, Globals: info.Globals}
	var buf []ir.Instr
	for _, fn := range info.Funcs {
		g := &gen{info: info, semFn: fn, opts: opts, buf: buf}
		irf, err := g.build()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, irf)
		buf = g.buf
	}
	return prog, nil
}

type gen struct {
	info  *sem.Info
	semFn *sem.Func
	f     *ir.Func
	opts  Options
	cur   *ir.Block // nil after a terminator until a new block starts
	// buf holds cur's instructions until its terminator, which copies
	// them into cur.Instrs at their exact length; it is reused by every
	// block of every function.
	buf []ir.Instr

	regOf   map[*sem.Object]ir.Reg // register-resident scalars
	inFrame map[*sem.Object]bool

	breaks    []*ir.Block
	continues []*ir.Block
}

func (g *gen) build() (*ir.Func, error) {
	g.f = &ir.Func{Name: g.semFn.Name(), Sem: g.semFn}
	g.regOf = make(map[*sem.Object]ir.Reg)
	g.inFrame = make(map[*sem.Object]bool)
	g.cur = g.f.NewBlock()

	// Incoming parameters: one virtual register each. Address-taken
	// parameters additionally get a frame slot initialized at entry.
	for _, p := range g.semFn.Params {
		r := g.f.NewReg()
		g.f.Params = append(g.f.Params, r)
		if p.AddrTaken || g.opts.StackScalars {
			g.frameObj(p)
			addr := g.f.NewReg()
			g.emit(ir.Instr{Op: ir.OpAddr, Dst: addr, Obj: p, Pos: p.Pos})
			g.emit(ir.Instr{Op: ir.OpStore, A: addr, B: r,
				Ref: &ir.MemRef{Kind: ir.RefScalar, Obj: p, AliasSet: -1}, Pos: p.Pos})
		} else {
			g.regOf[p] = r
		}
	}

	g.stmt(g.semFn.Decl.Body)

	// Fall-off-the-end return.
	if g.cur != nil {
		if g.semFn.Obj.Type.Result.IsVoid() {
			g.emit(ir.Instr{Op: ir.OpRet, A: ir.NoReg})
		} else {
			zero := g.f.NewReg()
			g.emit(ir.Instr{Op: ir.OpConst, Dst: zero})
			g.emit(ir.Instr{Op: ir.OpRet, A: zero})
		}
		g.cur = nil
	}

	g.f.RemoveUnreachable()
	g.f.Renumber()
	if err := g.f.Verify(); err != nil {
		return nil, fmt.Errorf("irgen internal error: %w", err)
	}
	return g.f, nil
}

// frameObj registers obj as needing frame storage (idempotent).
func (g *gen) frameObj(obj *sem.Object) {
	if !g.inFrame[obj] {
		g.inFrame[obj] = true
		g.f.FrameObjs = append(g.f.FrameObjs, obj)
	}
}

func (g *gen) emit(in ir.Instr) {
	if g.cur == nil {
		// Unreachable code (e.g. after return); give it a block so the
		// structure stays valid, then let RemoveUnreachable delete it.
		g.cur = g.f.NewBlock()
	}
	g.buf = append(g.buf, in)
	if in.IsTerminator() {
		g.cur.Instrs = make([]ir.Instr, len(g.buf))
		copy(g.cur.Instrs, g.buf)
		g.buf = g.buf[:0]
		g.cur = nil
	}
}

// setCur starts emitting into b. Every block is entered once, after the
// previous block's terminator: the instructions of a block left open
// would still sit in buf.
func (g *gen) setCur(b *ir.Block) {
	if g.cur != nil || len(b.Instrs) > 0 {
		panic(fmt.Sprintf("irgen: %s: b%d entered while another block is open, or after its terminator", g.f.Name, b.ID)) //unilint:ok panicguard unreachable: every statement form closes its block before entering the next; ice.Guard at the front door converts any miss to a structured ICE
	}
	g.cur = b
}

func (g *gen) jump(to *ir.Block) {
	if g.cur != nil {
		g.emit(ir.Instr{Op: ir.OpJmp, Then: to})
	}
}

// ---- Statements ----

func (g *gen) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			g.stmt(sub)
		}
	case *ast.DeclStmt:
		g.localDecl(s.Decl)
	case *ast.AssignStmt:
		g.assign(s)
	case *ast.IncDecStmt:
		g.incDec(s)
	case *ast.ExprStmt:
		g.exprStmt(s.X)
	case *ast.IfStmt:
		g.ifStmt(s)
	case *ast.WhileStmt:
		g.whileStmt(s)
	case *ast.ForStmt:
		g.forStmt(s)
	case *ast.ReturnStmt:
		g.returnStmt(s)
	case *ast.BreakStmt:
		g.jump(g.breaks[len(g.breaks)-1])
	case *ast.ContinueStmt:
		g.jump(g.continues[len(g.continues)-1])
	}
}

func (g *gen) localDecl(d *ast.VarDecl) {
	obj := g.info.Decls[d]
	if obj.Type.IsScalar() && !obj.AddrTaken && !g.opts.StackScalars {
		r := g.f.NewReg()
		g.regOf[obj] = r
		if d.Init != nil {
			v := g.expr(d.Init)
			g.emit(ir.Instr{Op: ir.OpCopy, Dst: r, A: v, Pos: d.NamePos})
		}
		return
	}
	g.frameObj(obj)
	if d.Init != nil {
		v := g.expr(d.Init)
		addr := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpAddr, Dst: addr, Obj: obj, Pos: d.NamePos})
		g.emit(ir.Instr{Op: ir.OpStore, A: addr, B: v,
			Ref: &ir.MemRef{Kind: ir.RefScalar, Obj: obj, AliasSet: -1}, Pos: d.NamePos})
	}
}

func (g *gen) assign(s *ast.AssignStmt) {
	if s.Op == token.ASSIGN {
		lv := g.lvalue(s.LHS)
		v := g.expr(s.RHS)
		// Pointer compound semantics do not apply to plain assignment.
		g.storeLv(lv, v, s.LHS.Pos())
		return
	}
	// Compound assignment: read-modify-write through a single address
	// computation so x[i] += e evaluates the address once.
	lv := g.lvalue(s.LHS)
	old := g.loadLv(lv, s.LHS.Pos())
	rhs := g.expr(s.RHS)
	var bk ir.BinKind
	switch s.Op {
	case token.PLUSEQ:
		bk = ir.Add
	case token.MINUSEQ:
		bk = ir.Sub
	case token.STAREQ:
		bk = ir.Mul
	case token.SLASHEQ:
		bk = ir.Div
	case token.PERCENTEQ:
		bk = ir.Rem
	}
	// Pointer += n advances n elements.
	if lt := g.info.TypeOf(s.LHS); lt != nil && lt.IsPointer() {
		rhs = g.scale(rhs, lt.Elem.Words(), s.Pos())
	}
	res := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpBin, Dst: res, A: old, B: rhs, Bin: bk, Pos: s.Pos()})
	g.storeLv(lv, res, s.LHS.Pos())
}

func (g *gen) incDec(s *ast.IncDecStmt) {
	lv := g.lvalue(s.LHS)
	old := g.loadLv(lv, s.LHS.Pos())
	one := g.f.NewReg()
	step := int64(1)
	if lt := g.info.TypeOf(s.LHS); lt != nil && lt.IsPointer() {
		step = int64(lt.Elem.Words())
	}
	g.emit(ir.Instr{Op: ir.OpConst, Dst: one, Imm: step, Pos: s.Pos()})
	bk := ir.Add
	if s.Op == token.DEC {
		bk = ir.Sub
	}
	res := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpBin, Dst: res, A: old, B: one, Bin: bk, Pos: s.Pos()})
	g.storeLv(lv, res, s.LHS.Pos())
}

func (g *gen) exprStmt(e ast.Expr) {
	call, ok := e.(*ast.Call)
	if !ok {
		g.expr(e) // checked already; evaluate for effect
		return
	}
	g.call(call, false)
}

func (g *gen) ifStmt(s *ast.IfStmt) {
	thenB := g.f.NewBlock()
	joinB := g.f.NewBlock()
	elseB := joinB
	if s.Else != nil {
		elseB = g.f.NewBlock()
	}
	g.cond(s.Cond, thenB, elseB)
	g.setCur(thenB)
	g.stmt(s.Then)
	g.jump(joinB)
	if s.Else != nil {
		g.setCur(elseB)
		g.stmt(s.Else)
		g.jump(joinB)
	}
	g.setCur(joinB)
}

func (g *gen) whileStmt(s *ast.WhileStmt) {
	head := g.f.NewBlock()
	body := g.f.NewBlock()
	exit := g.f.NewBlock()
	g.jump(head)
	g.setCur(head)
	g.cond(s.Cond, body, exit)
	g.breaks = append(g.breaks, exit)
	g.continues = append(g.continues, head)
	g.setCur(body)
	g.stmt(s.Body)
	g.jump(head)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.continues = g.continues[:len(g.continues)-1]
	g.setCur(exit)
}

func (g *gen) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		g.stmt(s.Init)
	}
	head := g.f.NewBlock()
	body := g.f.NewBlock()
	post := g.f.NewBlock()
	exit := g.f.NewBlock()
	g.jump(head)
	g.setCur(head)
	if s.Cond != nil {
		g.cond(s.Cond, body, exit)
	} else {
		g.jump(body)
	}
	g.breaks = append(g.breaks, exit)
	g.continues = append(g.continues, post)
	g.setCur(body)
	g.stmt(s.Body)
	g.jump(post)
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.continues = g.continues[:len(g.continues)-1]
	g.setCur(post)
	if s.Post != nil {
		g.stmt(s.Post)
	}
	g.jump(head)
	g.setCur(exit)
}

func (g *gen) returnStmt(s *ast.ReturnStmt) {
	if s.Result == nil {
		g.emit(ir.Instr{Op: ir.OpRet, A: ir.NoReg, Pos: s.Pos()})
		return
	}
	v := g.expr(s.Result)
	g.emit(ir.Instr{Op: ir.OpRet, A: v, Pos: s.Pos()})
}

// ---- Conditions (short-circuit control flow) ----

func (g *gen) cond(e ast.Expr, t, f *ir.Block) {
	switch e := e.(type) {
	case *ast.Binary:
		switch e.Op {
		case token.LAND:
			mid := g.f.NewBlock()
			g.cond(e.X, mid, f)
			g.setCur(mid)
			g.cond(e.Y, t, f)
			return
		case token.LOR:
			mid := g.f.NewBlock()
			g.cond(e.X, t, mid)
			g.setCur(mid)
			g.cond(e.Y, t, f)
			return
		case token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ:
			a := g.expr(e.X)
			b := g.expr(e.Y)
			c := g.f.NewReg()
			g.emit(ir.Instr{Op: ir.OpBin, Dst: c, A: a, B: b, Bin: cmpKind(e.Op), Pos: e.Pos()})
			g.emit(ir.Instr{Op: ir.OpBr, A: c, Then: t, Else: f, Pos: e.Pos()})
			return
		}
	case *ast.Unary:
		if e.Op == token.NOT {
			g.cond(e.X, f, t)
			return
		}
	}
	v := g.expr(e)
	g.emit(ir.Instr{Op: ir.OpBr, A: v, Then: t, Else: f, Pos: e.Pos()})
}

func cmpKind(op token.Kind) ir.BinKind {
	switch op {
	case token.EQ:
		return ir.CmpEQ
	case token.NEQ:
		return ir.CmpNE
	case token.LT:
		return ir.CmpLT
	case token.LEQ:
		return ir.CmpLE
	case token.GT:
		return ir.CmpGT
	case token.GEQ:
		return ir.CmpGE
	}
	panic("not a comparison: " + op.String()) //unilint:ok panicguard unreachable on type-checked input; ice.Guard at the front door converts any miss to a structured ICE
}

// ---- Lvalues ----

// lvalue describes an assignable location: either a register-resident
// scalar (reg != NoReg) or a memory word (addr + ref).
type lvalue struct {
	reg  ir.Reg
	addr ir.Reg
	ref  *ir.MemRef
}

func (g *gen) lvalue(e ast.Expr) lvalue {
	switch e := e.(type) {
	case *ast.Ident:
		obj := g.info.ObjectOf(e)
		if r, ok := g.regOf[obj]; ok {
			return lvalue{reg: r, addr: ir.NoReg}
		}
		if obj.Kind != sem.GlobalVar {
			g.frameObj(obj)
		}
		addr := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpAddr, Dst: addr, Obj: obj, Pos: e.Pos()})
		return lvalue{reg: ir.NoReg, addr: addr,
			ref: &ir.MemRef{Kind: ir.RefScalar, Obj: obj, AliasSet: -1}}
	case *ast.Index:
		addr, ref := g.elementAddr(e)
		return lvalue{reg: ir.NoReg, addr: addr, ref: ref}
	case *ast.Unary:
		if e.Op == token.STAR {
			p := g.expr(e.X)
			return lvalue{reg: ir.NoReg, addr: p,
				ref: &ir.MemRef{Kind: ir.RefPointer, Ptr: g.basePointer(e.X), AliasSet: -1}}
		}
	}
	panic("irgen: invalid lvalue " + ast.ExprString(e)) //unilint:ok panicguard unreachable on type-checked input; ice.Guard at the front door converts any miss to a structured ICE
}

func (g *gen) loadLv(lv lvalue, pos token.Pos) ir.Reg {
	if lv.reg != ir.NoReg {
		return lv.reg
	}
	dst := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: lv.addr, Ref: cloneRef(lv.ref), Pos: pos})
	return dst
}

func (g *gen) storeLv(lv lvalue, v ir.Reg, pos token.Pos) {
	if lv.reg != ir.NoReg {
		g.emit(ir.Instr{Op: ir.OpCopy, Dst: lv.reg, A: v, Pos: pos})
		return
	}
	g.emit(ir.Instr{Op: ir.OpStore, A: lv.addr, B: v, Ref: cloneRef(lv.ref), Pos: pos})
}

// cloneRef gives each load/store site its own MemRef so annotations stay
// per-site even when one lvalue computation feeds both a load and a store.
func cloneRef(r *ir.MemRef) *ir.MemRef {
	c := *r
	return &c
}

// elementAddr lowers the address computation of an Index expression and
// returns the address register plus the site's MemRef.
func (g *gen) elementAddr(e *ast.Index) (ir.Reg, *ir.MemRef) {
	xt := g.info.TypeOf(e.X)
	var base ir.Reg
	var ref *ir.MemRef
	if xt.IsArray() {
		base, ref = g.arrayBase(e.X)
	} else { // pointer
		base = g.expr(e.X)
		ref = &ir.MemRef{Kind: ir.RefPointer, Ptr: g.basePointer(e.X), AliasSet: -1}
	}
	idx := g.expr(e.Idx)
	elemWords := xt.Elem.Words()
	if xt.IsPointer() {
		elemWords = xt.Elem.Words()
	}
	scaled := g.scale(idx, elemWords, e.Pos())
	addr := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpBin, Dst: addr, A: base, B: scaled, Bin: ir.Add, Pos: e.Pos()})
	return addr, ref
}

// arrayBase returns the base address of an array-typed expression along
// with a MemRef naming the root array object when statically known.
func (g *gen) arrayBase(e ast.Expr) (ir.Reg, *ir.MemRef) {
	switch e := e.(type) {
	case *ast.Ident:
		obj := g.info.ObjectOf(e)
		if obj.Kind != sem.GlobalVar {
			g.frameObj(obj)
		}
		addr := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpAddr, Dst: addr, Obj: obj, Pos: e.Pos()})
		return addr, &ir.MemRef{Kind: ir.RefElement, Obj: obj, AliasSet: -1}
	case *ast.Index:
		// Partial index of a multi-dimensional array: address arithmetic
		// only, same root object.
		addr, ref := g.elementAddr(e)
		return addr, ref
	case *ast.Unary:
		if e.Op == token.STAR {
			p := g.expr(e.X)
			return p, &ir.MemRef{Kind: ir.RefPointer, Ptr: g.basePointer(e.X), AliasSet: -1}
		}
	}
	panic("irgen: invalid array base " + ast.ExprString(e)) //unilint:ok panicguard unreachable on type-checked input; ice.Guard at the front door converts any miss to a structured ICE
}

// scale multiplies idx by words unless words == 1.
func (g *gen) scale(idx ir.Reg, words int, pos token.Pos) ir.Reg {
	if words == 1 {
		return idx
	}
	w := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpConst, Dst: w, Imm: int64(words), Pos: pos})
	out := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpBin, Dst: out, A: idx, B: w, Bin: ir.Mul, Pos: pos})
	return out
}

// ---- Expressions ----

func (g *gen) expr(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.IntLit:
		r := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpConst, Dst: r, Imm: e.Value, Pos: e.Pos()})
		return r

	case *ast.Ident:
		obj := g.info.ObjectOf(e)
		if r, ok := g.regOf[obj]; ok {
			return r
		}
		if obj.Type.IsArray() {
			// Array decays to its base address.
			addr, _ := g.arrayBase(e)
			return addr
		}
		if obj.Kind != sem.GlobalVar {
			g.frameObj(obj)
		}
		addr := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpAddr, Dst: addr, Obj: obj, Pos: e.Pos()})
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: addr,
			Ref: &ir.MemRef{Kind: ir.RefScalar, Obj: obj, AliasSet: -1}, Pos: e.Pos()})
		return dst

	case *ast.Unary:
		return g.unary(e)

	case *ast.Binary:
		return g.binary(e)

	case *ast.Index:
		t := g.info.TypeOf(e)
		addr, ref := g.elementAddr(e)
		if t.IsArray() {
			return addr // partial index of a multi-dim array
		}
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: addr, Ref: ref, Pos: e.Pos()})
		return dst

	case *ast.Call:
		return g.call(e, true)
	}
	panic("irgen: unhandled expression") //unilint:ok panicguard unreachable on type-checked input; ice.Guard at the front door converts any miss to a structured ICE
}

func (g *gen) unary(e *ast.Unary) ir.Reg {
	switch e.Op {
	case token.MINUS:
		x := g.expr(e.X)
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpNeg, Dst: dst, A: x, Pos: e.Pos()})
		return dst
	case token.NOT:
		x := g.expr(e.X)
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpNot, Dst: dst, A: x, Pos: e.Pos()})
		return dst
	case token.STAR:
		p := g.expr(e.X)
		dst := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, A: p,
			Ref: &ir.MemRef{Kind: ir.RefPointer, Ptr: g.basePointer(e.X), AliasSet: -1}, Pos: e.Pos()})
		return dst
	case token.AMP:
		return g.addressOf(e.X)
	}
	panic("irgen: unhandled unary " + e.Op.String()) //unilint:ok panicguard unreachable on type-checked input; ice.Guard at the front door converts any miss to a structured ICE
}

func (g *gen) addressOf(e ast.Expr) ir.Reg {
	switch e := e.(type) {
	case *ast.Ident:
		obj := g.info.ObjectOf(e)
		if obj.Kind != sem.GlobalVar {
			g.frameObj(obj)
		}
		addr := g.f.NewReg()
		g.emit(ir.Instr{Op: ir.OpAddr, Dst: addr, Obj: obj, Pos: e.Pos()})
		return addr
	case *ast.Index:
		addr, _ := g.elementAddr(e)
		return addr
	case *ast.Unary:
		if e.Op == token.STAR {
			return g.expr(e.X) // &*p == p
		}
	}
	panic("irgen: invalid address-of") //unilint:ok panicguard unreachable on type-checked input; ice.Guard at the front door converts any miss to a structured ICE
}

func (g *gen) binary(e *ast.Binary) ir.Reg {
	switch e.Op {
	case token.LAND, token.LOR:
		return g.boolValue(e)
	}

	xt := g.info.TypeOf(e.X)
	yt := g.info.TypeOf(e.Y)
	a := g.expr(e.X)
	b := g.expr(e.Y)

	// Pointer arithmetic scaling.
	xd, yd := xt.Decay(), yt.Decay()
	switch e.Op {
	case token.PLUS:
		if xd.IsPointer() && yd.IsInt() {
			b = g.scale(b, xd.Elem.Words(), e.Pos())
		} else if xd.IsInt() && yd.IsPointer() {
			a = g.scale(a, yd.Elem.Words(), e.Pos())
		}
	case token.MINUS:
		if xd.IsPointer() && yd.IsInt() {
			b = g.scale(b, xd.Elem.Words(), e.Pos())
		} else if xd.IsPointer() && yd.IsPointer() {
			diff := g.f.NewReg()
			g.emit(ir.Instr{Op: ir.OpBin, Dst: diff, A: a, B: b, Bin: ir.Sub, Pos: e.Pos()})
			if w := xd.Elem.Words(); w != 1 {
				ws := g.f.NewReg()
				g.emit(ir.Instr{Op: ir.OpConst, Dst: ws, Imm: int64(w), Pos: e.Pos()})
				out := g.f.NewReg()
				g.emit(ir.Instr{Op: ir.OpBin, Dst: out, A: diff, B: ws, Bin: ir.Div, Pos: e.Pos()})
				return out
			}
			return diff
		}
	}

	dst := g.f.NewReg()
	g.emit(ir.Instr{Op: ir.OpBin, Dst: dst, A: a, B: b, Bin: binKind(e.Op), Pos: e.Pos()})
	return dst
}

// boolValue materializes a short-circuit expression as 0 or 1.
func (g *gen) boolValue(e ast.Expr) ir.Reg {
	dst := g.f.NewReg()
	tB := g.f.NewBlock()
	fB := g.f.NewBlock()
	join := g.f.NewBlock()
	g.cond(e, tB, fB)
	g.setCur(tB)
	g.emit(ir.Instr{Op: ir.OpConst, Dst: dst, Imm: 1, Pos: e.Pos()})
	g.jump(join)
	g.setCur(fB)
	g.emit(ir.Instr{Op: ir.OpConst, Dst: dst, Imm: 0, Pos: e.Pos()})
	g.jump(join)
	g.setCur(join)
	return dst
}

func binKind(op token.Kind) ir.BinKind {
	switch op {
	case token.PLUS:
		return ir.Add
	case token.MINUS:
		return ir.Sub
	case token.STAR:
		return ir.Mul
	case token.SLASH:
		return ir.Div
	case token.PERCENT:
		return ir.Rem
	case token.AMP:
		return ir.And
	case token.PIPE:
		return ir.Or
	case token.CARET:
		return ir.Xor
	case token.SHL:
		return ir.Shl
	case token.SHR:
		return ir.Shr
	case token.EQ, token.NEQ, token.LT, token.LEQ, token.GT, token.GEQ:
		return cmpKind(op)
	}
	panic("irgen: unhandled binary " + op.String()) //unilint:ok panicguard unreachable on type-checked input; ice.Guard at the front door converts any miss to a structured ICE
}

// call lowers a function or builtin call. wantValue selects whether a
// result register is produced.
func (g *gen) call(e *ast.Call, wantValue bool) ir.Reg {
	callee := g.info.ObjectOf(e.Fun)
	var args []ir.Reg
	for _, a := range e.Args {
		args = append(args, g.expr(a))
	}
	if callee.Kind == sem.BuiltinObj {
		imm := int64(0)
		if callee.Name == "printchar" {
			imm = 1
		}
		g.emit(ir.Instr{Op: ir.OpPrint, A: args[0], Imm: imm, Pos: e.Pos()})
		return ir.NoReg
	}
	dst := ir.NoReg
	if wantValue && callee.Type.Result.IsInt() {
		dst = g.f.NewReg()
	}
	// Stage arguments immediately before the call so each value's live
	// range ends at its own staging instruction (the machine's argument
	// registers take over from there).
	for i, a := range args {
		g.emit(ir.Instr{Op: ir.OpArg, A: a, Imm: int64(i), Pos: e.Pos()})
	}
	g.emit(ir.Instr{Op: ir.OpCall, Dst: dst, Callee: callee, Imm: int64(len(args)), Pos: e.Pos()})
	return dst
}

// basePointer finds the pointer variable an address expression is rooted
// at, when it is syntactically evident: *p, p[i], *(p+k), pa[i] (element of
// a pointer array). Returns nil when the base is not a single variable.
func (g *gen) basePointer(e ast.Expr) *sem.Object {
	switch e := e.(type) {
	case *ast.Ident:
		obj := g.info.ObjectOf(e)
		if obj != nil && obj.IsVar() {
			t := obj.Type
			if t.IsPointer() || (t.IsArray() && t.Elem.IsPointer()) {
				return obj
			}
		}
		return nil
	case *ast.Binary:
		if xt := g.info.TypeOf(e.X); xt != nil && xt.Decay().IsPointer() {
			return g.basePointer(e.X)
		}
		if yt := g.info.TypeOf(e.Y); yt != nil && yt.Decay().IsPointer() {
			return g.basePointer(e.Y)
		}
		return nil
	case *ast.Index:
		// Element of an array of pointers: the array object stands for all
		// its elements in the points-to graph.
		if xt := g.info.TypeOf(e.X); xt != nil && xt.IsArray() && xt.Elem.IsPointer() {
			return g.basePointer(e.X)
		}
		return nil
	}
	return nil
}
