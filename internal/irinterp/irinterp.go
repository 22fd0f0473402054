// Package irinterp executes IR programs directly, independent of the code
// generator and machine simulator. It is the semantic reference: the UM32
// VM must produce byte-identical output for every program, and annotation
// passes (alias, unified management) must never change irinterp results,
// because bypass and last-reference bits are performance hints only.
package irinterp

import (
	"fmt"
	"strings"

	"repro/internal/ir"
	"repro/internal/memimg"
	"repro/internal/sem"
)

// Config controls interpreter limits.
type Config struct {
	MemWords  int   // flat memory size (default 1 << 22)
	MaxSteps  int64 // instruction budget (default 500M)
	StackBase int   // first word of the downward-growing stack (default MemWords)

	// OnRef, when non-nil, observes every executed OpLoad/OpStore with its
	// resolved absolute address, before the access happens. It lets callers
	// replay the reference stream through a cache model without perturbing
	// execution.
	OnRef func(f *ir.Func, ins *ir.Instr, addr int64)
}

// Result is the outcome of a run.
type Result struct {
	Output string // everything printed by print/printchar
	Steps  int64  // instructions executed
}

// BudgetError reports an exhausted instruction budget, naming the
// function that was executing when the limit hit so a runaway program can
// be located. Callers detect it with errors.As.
type BudgetError struct {
	Limit int64  // the exhausted MaxSteps budget
	Func  string // IR function executing when the budget ran out
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("irinterp: budget of %d steps exhausted in %s", e.Limit, e.Func)
}

// Run executes prog starting at main() and returns its output.
func Run(prog *ir.Program, cfg Config) (*Result, error) {
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 22
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	if cfg.StackBase == 0 {
		cfg.StackBase = cfg.MemWords
	}
	main := prog.Lookup("main")
	if main == nil {
		return nil, fmt.Errorf("irinterp: program has no main function")
	}
	in := &interp{
		prog:   prog,
		mem:    memimg.New[int64](cfg.MemWords),
		global: make(map[*sem.Object]int64),
		frames: make(map[*ir.Func]*frameLayout),
		sp:     int64(cfg.StackBase),
		limit:  cfg.MaxSteps,
		onRef:  cfg.OnRef,
	}
	// Lay out globals from address 64 upward (address 0 stays unused so
	// stray zero-pointers fault into unused space rather than a variable).
	next := int64(64)
	for _, g := range prog.Globals {
		in.global[g] = next
		if g.Type.IsInt() {
			in.mem.Store(next, g.InitVal)
		}
		next += int64(g.Type.Words())
	}
	if _, err := in.call(main, nil); err != nil {
		return nil, err
	}
	return &Result{Output: in.out.String(), Steps: in.steps}, nil
}

type interp struct {
	prog   *ir.Program
	mem    *memimg.Image[int64]
	global map[*sem.Object]int64
	frames map[*ir.Func]*frameLayout
	regs   []int64 // register files of the active calls, innermost last
	sp     int64
	out    strings.Builder
	steps  int64
	limit  int64
	onRef  func(f *ir.Func, ins *ir.Instr, addr int64)
}

// frameLayout is a function's frame: its spill slots, then its frame
// objects at offsets from the frame base.
type frameLayout struct {
	off   map[*sem.Object]int64
	words int64
}

// frame returns f's layout, computing it on f's first call.
func (in *interp) frame(f *ir.Func) *frameLayout {
	if fl, ok := in.frames[f]; ok {
		return fl
	}
	fl := &frameLayout{off: make(map[*sem.Object]int64, len(f.FrameObjs)), words: int64(f.SpillSlots)}
	for _, obj := range f.FrameObjs {
		fl.off[obj] = fl.words
		fl.words += int64(obj.Type.Words())
	}
	in.frames[f] = fl
	return fl
}

// call runs f. It reads args only before executing f's first
// instruction, so a caller may pass a buffer it reuses afterwards.
func (in *interp) call(f *ir.Func, args []int64) (int64, error) {
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("irinterp: %s called with %d args, want %d", f.Name, len(args), len(f.Params))
	}
	// Allocate frame objects on the bump stack, and the register file on
	// the register stack. A nested call may move in.regs; this call keeps
	// using its own slice, which no other call reads.
	fl := in.frame(f)
	frame, frameWords := fl.off, fl.words
	base := in.sp - frameWords
	if base < 0 {
		return 0, fmt.Errorf("irinterp: stack overflow in %s", f.Name)
	}
	in.sp = base
	top := len(in.regs)
	in.regs = append(in.regs, make([]int64, f.NReg)...)
	regs := in.regs[top:]
	defer func() {
		in.sp = base + frameWords
		in.regs = in.regs[:top]
	}()

	for i, p := range f.Params {
		regs[p] = args[i]
		if slot, ok := f.ParamSpillSlot[i]; ok {
			in.mem.Store(base+int64(slot), args[i])
		}
	}

	addrOf := func(obj *sem.Object) (int64, error) {
		if off, ok := frame[obj]; ok {
			return base + off, nil
		}
		if a, ok := in.global[obj]; ok {
			return a, nil
		}
		return 0, fmt.Errorf("irinterp: %s: no storage for %s", f.Name, obj.Name)
	}
	checkAddr := func(a int64) error {
		if a < 0 || a >= int64(in.mem.Words()) {
			return fmt.Errorf("irinterp: %s: address %d out of range", f.Name, a)
		}
		return nil
	}

	var argbuf []int64
	b := f.Entry()
	for {
		var next *ir.Block
		for i := range b.Instrs {
			if in.steps++; in.steps > in.limit {
				return 0, &BudgetError{Limit: in.limit, Func: f.Name}
			}
			ins := &b.Instrs[i]
			switch ins.Op {
			case ir.OpNop:
			case ir.OpConst:
				regs[ins.Dst] = ins.Imm
			case ir.OpCopy:
				regs[ins.Dst] = regs[ins.A]
			case ir.OpNeg:
				regs[ins.Dst] = -regs[ins.A]
			case ir.OpNot:
				if regs[ins.A] == 0 {
					regs[ins.Dst] = 1
				} else {
					regs[ins.Dst] = 0
				}
			case ir.OpBin:
				v, err := evalBin(ins.Bin, regs[ins.A], regs[ins.B])
				if err != nil {
					return 0, fmt.Errorf("%s in %s at %s", err, f.Name, ins.Pos)
				}
				regs[ins.Dst] = v
			case ir.OpAddr:
				a, err := addrOf(ins.Obj)
				if err != nil {
					return 0, err
				}
				regs[ins.Dst] = a + ins.Imm
			case ir.OpLoad:
				var a int64
				if ins.Ref != nil && ins.Ref.Kind == ir.RefSpill {
					a = base + int64(ins.Ref.Slot)
				} else {
					a = regs[ins.A]
				}
				if err := checkAddr(a); err != nil {
					return 0, err
				}
				if in.onRef != nil {
					in.onRef(f, ins, a)
				}
				regs[ins.Dst] = in.mem.Load(a)
			case ir.OpStore:
				var a int64
				if ins.Ref != nil && ins.Ref.Kind == ir.RefSpill {
					a = base + int64(ins.Ref.Slot)
				} else {
					a = regs[ins.A]
				}
				if err := checkAddr(a); err != nil {
					return 0, err
				}
				if in.onRef != nil {
					in.onRef(f, ins, a)
				}
				in.mem.Store(a, regs[ins.B])
			case ir.OpArg:
				idx := int(ins.Imm)
				for len(argbuf) <= idx {
					argbuf = append(argbuf, 0)
				}
				argbuf[idx] = regs[ins.A]
			case ir.OpCall:
				callee := in.prog.Lookup(ins.Callee.Name)
				if callee == nil {
					return 0, fmt.Errorf("irinterp: call to unknown function %s", ins.Callee.Name)
				}
				if int64(len(argbuf)) < ins.Imm {
					return 0, fmt.Errorf("irinterp: call %s staged %d of %d args", ins.Callee.Name, len(argbuf), ins.Imm)
				}
				rv, err := in.call(callee, argbuf[:ins.Imm])
				argbuf = argbuf[:0]
				if err != nil {
					return 0, err
				}
				if ins.Dst != ir.NoReg {
					regs[ins.Dst] = rv
				}
			case ir.OpPrint:
				if ins.Imm == 1 {
					in.out.WriteByte(byte(regs[ins.A]))
				} else {
					fmt.Fprintf(&in.out, "%d\n", regs[ins.A])
				}
			case ir.OpRet:
				if ins.A != ir.NoReg {
					return regs[ins.A], nil
				}
				return 0, nil
			case ir.OpBr:
				if regs[ins.A] != 0 {
					next = ins.Then
				} else {
					next = ins.Else
				}
			case ir.OpJmp:
				next = ins.Then
			default:
				return 0, fmt.Errorf("irinterp: unhandled op %s", ins.Op)
			}
		}
		if next == nil {
			return 0, fmt.Errorf("irinterp: fell off block b%d in %s", b.ID, f.Name)
		}
		b = next
	}
}

func evalBin(op ir.BinKind, a, b int64) (int64, error) {
	boolVal := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	switch op {
	case ir.Add:
		return a + b, nil
	case ir.Sub:
		return a - b, nil
	case ir.Mul:
		return a * b, nil
	case ir.Div:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		if b == -1 {
			// MinInt64 / -1 wraps (two's complement), matching the VM.
			return -a, nil
		}
		return a / b, nil
	case ir.Rem:
		if b == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		if b == -1 {
			return 0, nil
		}
		return a % b, nil
	case ir.And:
		return a & b, nil
	case ir.Or:
		return a | b, nil
	case ir.Xor:
		return a ^ b, nil
	case ir.Shl:
		return a << uint64(b&63), nil
	case ir.Shr:
		return a >> uint64(b&63), nil
	case ir.CmpEQ:
		return boolVal(a == b), nil
	case ir.CmpNE:
		return boolVal(a != b), nil
	case ir.CmpLT:
		return boolVal(a < b), nil
	case ir.CmpLE:
		return boolVal(a <= b), nil
	case ir.CmpGT:
		return boolVal(a > b), nil
	case ir.CmpGE:
		return boolVal(a >= b), nil
	}
	return 0, fmt.Errorf("unknown binary op")
}
