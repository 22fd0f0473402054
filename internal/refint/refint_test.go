package refint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/irinterp"
	"repro/internal/parser"
)

func run(t *testing.T, src string, cfg Config) (*Result, error) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Run(file, cfg)
}

func mustRun(t *testing.T, src string) *Result {
	t.Helper()
	res, err := run(t, src, Config{})
	if err != nil {
		t.Fatalf("refint: %v", err)
	}
	return res
}

func wantErrKind(t *testing.T, src string, kind ErrKind) *Error {
	t.Helper()
	_, err := run(t, src, Config{})
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("want *Error of kind %s, got %v", kind, err)
	}
	if re.Kind != kind {
		t.Fatalf("want error kind %s, got %s (%v)", kind, re.Kind, re)
	}
	return re
}

// TestBenchmarksMatchIRInterp pins the reference interpreter to the IR
// interpreter over the whole benchmark suite: two independently written
// executors of the same programs must agree byte for byte.
func TestBenchmarksMatchIRInterp(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			file, err := parser.Parse(b.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			ref, err := Run(file, Config{MaxSteps: 200_000_000})
			if err != nil {
				t.Fatalf("refint: %v", err)
			}
			comp, err := core.Compile(b.Source, core.Config{Mode: core.Unified})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ir, err := irinterp.Run(comp.Prog, irinterp.Config{})
			if err != nil {
				t.Fatalf("irinterp: %v", err)
			}
			if ref.Output != ir.Output {
				t.Errorf("outputs diverge:\nrefint:   %q\nirinterp: %q", ref.Output, ir.Output)
			}
		})
	}
}

// TestExamplesMatchIRInterp does the same over the checked-in example
// programs.
func TestExamplesMatchIRInterp(t *testing.T) {
	paths, _ := filepath.Glob("../../examples/mc/*.mc")
	if len(paths) == 0 {
		t.Skip("no example programs found")
	}
	for _, p := range paths {
		p := p
		t.Run(filepath.Base(p), func(t *testing.T) {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			file, err := parser.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			ref, err := Run(file, Config{MaxSteps: 200_000_000})
			if err != nil {
				t.Fatalf("refint: %v", err)
			}
			comp, err := core.Compile(string(src), core.Config{Mode: core.Conventional})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			ir, err := irinterp.Run(comp.Prog, irinterp.Config{})
			if err != nil {
				t.Fatalf("irinterp: %v", err)
			}
			if ref.Output != ir.Output {
				t.Errorf("outputs diverge:\nrefint:   %q\nirinterp: %q", ref.Output, ir.Output)
			}
		})
	}
}

func TestGlobalsSnapshot(t *testing.T) {
	res := mustRun(t, `
int g;
int a[3];
void main() {
    int i;
    g = 41 + 1;
    for (i = 0; i < 3; i++) {
        a[i] = i * 10;
    }
}`)
	if got := res.Globals["g"]; len(got) != 1 || got[0] != 42 {
		t.Errorf("g = %v, want [42]", got)
	}
	if got := res.Globals["a"]; len(got) != 3 || got[0] != 0 || got[1] != 10 || got[2] != 20 {
		t.Errorf("a = %v, want [0 10 20]", got)
	}
}

// TestEvalOrder pins the observable evaluation order to irgen's: LHS
// addresses before RHS values, compound loads before RHS side effects,
// operands and arguments left to right.
func TestEvalOrder(t *testing.T) {
	src := `
int g;
int a[4];
int touch(int v) {
    print(v);
    g = v;
    return v;
}
void main() {
    g = 5;
    g += touch(3);
    print(g);
    a[touch(1)] = touch(2);
    print(touch(10) - touch(4));
}`
	res := mustRun(t, src)
	// g += touch(3): old g (5) is read before the call overwrites it, so
	// g becomes 5+3=8 even though touch set it to 3.
	want := "3\n8\n1\n2\n10\n4\n6\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}

	// The compiled pipeline must agree.
	comp, err := core.Compile(src, core.Config{Mode: core.Unified, Optimize: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ir, err := irinterp.Run(comp.Prog, irinterp.Config{})
	if err != nil {
		t.Fatalf("irinterp: %v", err)
	}
	if ir.Output != want {
		t.Errorf("irinterp output = %q, want %q", ir.Output, want)
	}
}

func TestShortCircuit(t *testing.T) {
	res := mustRun(t, `
int hit;
int yes(int r) { hit = hit + 1; return r; }
void main() {
    hit = 0;
    if (0 && yes(1)) { print(99); }
    if (1 || yes(1)) { print(1); }
    print(hit);
    if (yes(1) && yes(0)) { print(98); }
    print(hit);
}`)
	want := "1\n0\n2\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestPointerSemantics(t *testing.T) {
	res := mustRun(t, `
int a[5];
void main() {
    int *p;
    int *q;
    int i;
    for (i = 0; i < 5; i++) { a[i] = i * i; }
    p = a;
    q = &a[3];
    print(*q);
    print(q - p);
    print(p[2]);
    q = q - 1;
    print(*q);
    if (p == a) { print(111); }
    if (p != q) { print(222); }
}`)
	want := "9\n3\n4\n4\n111\n222\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestFallOffEndReturnsZero(t *testing.T) {
	res := mustRun(t, `
int f(int x) { if (x > 0) { return 7; } }
void main() { print(f(1)); print(f(0)); }`)
	if res.Output != "7\n0\n" {
		t.Errorf("output = %q, want %q", res.Output, "7\n0\n")
	}
}

func TestDivZero(t *testing.T) {
	wantErrKind(t, `void main() { int x; x = 0; print(10 / x); }`, ErrDivZero)
	wantErrKind(t, `void main() { int x; x = 0; print(10 % x); }`, ErrDivZero)
}

func TestWrapDivMinInt(t *testing.T) {
	res := mustRun(t, `
void main() {
    int min;
    int m1;
    min = 1;
    min = min << 63;
    m1 = -1;
    print(min / m1);
    print(min % m1);
}`)
	want := "-9223372036854775808\n0\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestShiftMasking(t *testing.T) {
	res := mustRun(t, `
void main() {
    int x;
    int s;
    x = 1;
    s = 65;
    print(x << s);
    s = -1;
    print(2 >> (s & 63));
}`)
	// 65&63 = 1 so 1<<65 == 2; (-1)&63 = 63 so 2>>63 == 0.
	want := "2\n0\n"
	if res.Output != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

func TestUninitRead(t *testing.T) {
	wantErrKind(t, `void main() { int x; print(x); }`, ErrUninit)
	wantErrKind(t, `void main() { int a[4]; print(a[2]); }`, ErrUninit)
	wantErrKind(t, `void main() { int x; int y; y = x + 1; print(y); }`, ErrUninit)
}

func TestSelfReferentialInitIsUninit(t *testing.T) {
	// sem resolves the initializer against the new declaration, so this
	// reads the fresh x before any write.
	wantErrKind(t, `int x; void main() { int x = x + 1; print(x); }`, ErrUninit)
}

func TestNullDeref(t *testing.T) {
	wantErrKind(t, `int *p; void main() { print(*p); }`, ErrNull)
}

func TestOutOfBounds(t *testing.T) {
	wantErrKind(t, `
int a[4];
void main() {
    int i;
    for (i = 0; i < 4; i++) { a[i] = i; }
    print(a[4]);
}`, ErrOutOfBounds)
}

func TestDanglingDeref(t *testing.T) {
	wantErrKind(t, `
int *gp;
void leak() { int x; x = 5; gp = &x; }
void main() { leak(); print(*gp); }`, ErrDangling)
}

func TestCrossObjectCompare(t *testing.T) {
	wantErrKind(t, `
int a[2];
int b[2];
void main() {
    int *p;
    int *q;
    p = a;
    q = b;
    if (p < q) { print(1); } else { print(2); }
}`, ErrCrossObject)
}

func TestCrossObjectEqualityIsDefined(t *testing.T) {
	res := mustRun(t, `
int a[2];
int b[2];
void main() {
    int *p;
    int *q;
    p = a;
    q = b;
    if (p == q) { print(1); } else { print(0); }
}`)
	if res.Output != "0\n" {
		t.Errorf("output = %q, want %q", res.Output, "0\n")
	}
}

func TestBudget(t *testing.T) {
	_, err := run(t, `void main() { while (1) { } }`, Config{MaxSteps: 1000})
	var re *Error
	if !errors.As(err, &re) || re.Kind != ErrBudget {
		t.Fatalf("want budget error, got %v", err)
	}
	if Invalid(err) {
		t.Error("budget exhaustion must not classify the program as invalid")
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	_, err := run(t, `
int down(int n) { return down(n - 1); }
void main() { print(down(1000000)); }`, Config{MaxFrames: 64})
	var re *Error
	if !errors.As(err, &re) || re.Kind != ErrStackOverflow {
		t.Fatalf("want stack-overflow error, got %v", err)
	}
}

func TestBoundedRecursionOK(t *testing.T) {
	res := mustRun(t, `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(15)); }`)
	if res.Output != "610\n" {
		t.Errorf("output = %q, want %q", res.Output, "610\n")
	}
}

func TestLoopDeclFreshPerIteration(t *testing.T) {
	// A declaration inside a loop body is fresh (and uninitialized) every
	// iteration; writing then reading it is fine.
	res := mustRun(t, `
void main() {
    int i;
    int sum;
    sum = 0;
    for (i = 0; i < 10; i++) {
        int t;
        t = i * 2;
        sum += t;
    }
    print(sum);
}`)
	if res.Output != "90\n" {
		t.Errorf("output = %q, want %q", res.Output, "90\n")
	}
}

func TestInvalidClassification(t *testing.T) {
	cases := []struct {
		err  *Error
		want bool
	}{
		{&Error{Kind: ErrBudget}, false},
		{&Error{Kind: ErrDivZero}, false},
		{&Error{Kind: ErrUninit}, true},
		{&Error{Kind: ErrNull}, true},
		{&Error{Kind: ErrDangling}, true},
		{&Error{Kind: ErrOutOfBounds}, true},
		{&Error{Kind: ErrCrossObject}, true},
		{&Error{Kind: ErrBadProgram}, true},
	}
	for _, c := range cases {
		if got := Invalid(c.err); got != c.want {
			t.Errorf("Invalid(%s) = %v, want %v", c.err.Kind, got, c.want)
		}
	}
	if Invalid(errors.New("plain")) {
		t.Error("plain errors must not classify as invalid")
	}
}

func TestErrorStrings(t *testing.T) {
	e := &Error{Kind: ErrUninit, Msg: "read of uninitialized x"}
	if !strings.Contains(e.Error(), "uninit-read") {
		t.Errorf("error string %q should name its kind", e.Error())
	}
}

// TestUninitReadOfNeverWrittenWord: storage reads as the zero cell, which
// is uninitialized, until a store reaches it, and a declaration stores
// nothing. a[0] lies far below the one word of a written near the top of
// memory, in storage no store has touched; g's y reuses the word f's x
// held, which f's return poisoned.
func TestUninitReadOfNeverWrittenWord(t *testing.T) {
	wantErrKind(t, `void main() { int a[100000]; a[99999] = 1; print(a[0]); }`, ErrUninit)
	wantErrKind(t, `
int f() { int x; x = 5; return x; }
int g() { int y; return y; }
void main() { print(f()); print(g()); }`, ErrUninit)
}
