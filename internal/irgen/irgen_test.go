package irgen

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/irinterp"
	"repro/internal/parser"
	"repro/internal/sem"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sem.Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	prog, err := Build(info)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	if err := prog.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return prog
}

func run(t *testing.T, src string) string {
	t.Helper()
	prog := compile(t, src)
	res, err := irinterp.Run(prog, irinterp.Config{})
	if err != nil {
		t.Fatalf("run: %v\nIR:\n%s", err, prog)
	}
	return res.Output
}

func expect(t *testing.T, src, want string) {
	t.Helper()
	if got := run(t, src); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestArithmetic(t *testing.T) {
	expect(t, `void main() { print(1 + 2 * 3 - 10 / 2 % 3); }`, "5\n")
	expect(t, `void main() { print(-7 / 2); print(-7 % 2); }`, "-3\n-1\n")
	expect(t, `void main() { print(1 << 10); print(1024 >> 3); }`, "1024\n128\n")
	expect(t, `void main() { print(12 & 10); print(12 | 3); print(12 ^ 10); }`, "8\n15\n6\n")
	expect(t, `void main() { print(-(3 + 4)); print(!0); print(!7); }`, "-7\n1\n0\n")
}

func TestComparisons(t *testing.T) {
	expect(t, `void main() { print(3 < 4); print(4 < 3); print(3 <= 3); print(3 > 3); print(4 >= 3); print(3 == 3); print(3 != 3); }`,
		"1\n0\n1\n0\n1\n1\n0\n")
}

func TestShortCircuit(t *testing.T) {
	// Division by zero on the right must not be evaluated.
	expect(t, `
int boom() { return 1 / 0; }
void main() {
    int x;
    x = 0;
    if (x != 0 && boom()) print(99);
    if (x == 0 || boom()) print(1);
    print(x != 0 && 1);
    print(x == 0 || 0);
}`, "1\n0\n1\n")
}

func TestControlFlow(t *testing.T) {
	expect(t, `
void main() {
    int i;
    int s;
    s = 0;
    for (i = 1; i <= 10; i++) s += i;
    print(s);
    while (s > 40) s -= 10;
    print(s);
    if (s == 35) print(1); else print(2);
}`, "55\n35\n1\n")
}

func TestBreakContinue(t *testing.T) {
	expect(t, `
void main() {
    int i;
    int s;
    s = 0;
    for (i = 0; i < 100; i++) {
        if (i % 2 == 0) continue;
        if (i > 8) break;
        s += i;
    }
    print(s);
}`, "16\n") // 1+3+5+7
}

func TestArrays(t *testing.T) {
	expect(t, `
int a[10];
void main() {
    int i;
    for (i = 0; i < 10; i++) a[i] = i * i;
    print(a[0] + a[1] + a[9]);
}`, "82\n")
}

func TestTwoDArrays(t *testing.T) {
	expect(t, `
int m[3][4];
void main() {
    int i;
    int j;
    for (i = 0; i < 3; i++)
        for (j = 0; j < 4; j++)
            m[i][j] = i * 10 + j;
    print(m[2][3]);
    print(m[0][1]);
    print(m[1][0]);
}`, "23\n1\n10\n")
}

func TestLocalArrays(t *testing.T) {
	expect(t, `
void main() {
    int a[5];
    int i;
    for (i = 0; i < 5; i++) a[i] = i + 100;
    print(a[4]);
}`, "104\n")
}

func TestPointers(t *testing.T) {
	expect(t, `
int g;
void main() {
    int x;
    int *p;
    p = &x;
    *p = 42;
    print(x);
    p = &g;
    *p = 7;
    print(g);
}`, "42\n7\n")
}

func TestPointerArithmetic(t *testing.T) {
	expect(t, `
int a[10];
void main() {
    int *p;
    int i;
    for (i = 0; i < 10; i++) a[i] = i;
    p = a;
    print(*p);
    p = p + 3;
    print(*p);
    p++;
    print(*p);
    print(p - a);
    print(p[2]);
}`, "0\n3\n4\n4\n6\n")
}

func TestPointerParams(t *testing.T) {
	expect(t, `
void swap(int *x, int *y) {
    int t;
    t = *x;
    *x = *y;
    *y = t;
}
void main() {
    int a;
    int b;
    a = 1;
    b = 2;
    swap(&a, &b);
    print(a);
    print(b);
}`, "2\n1\n")
}

func TestArrayParams(t *testing.T) {
	expect(t, `
int sum(int *v, int n) {
    int s;
    int i;
    s = 0;
    for (i = 0; i < n; i++) s += v[i];
    return s;
}
int data[4];
void main() {
    data[0] = 1; data[1] = 2; data[2] = 3; data[3] = 4;
    print(sum(data, 4));
}`, "10\n")
}

func TestRecursion(t *testing.T) {
	expect(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(15)); }`, "610\n")
}

func TestGlobalInit(t *testing.T) {
	expect(t, `
int g = 2 + 3;
int h = -4;
void main() { print(g); print(h); }`, "5\n-4\n")
}

func TestAliasingThroughPointers(t *testing.T) {
	// The classic a[i] vs a[j] ambiguity from Figure 2 of the paper.
	expect(t, `
int a[10];
void main() {
    int i;
    int j;
    i = 3;
    j = 3;
    a[i] = 5;
    a[i + j / 3] = a[i] + a[j];
    print(a[4]);
    print(a[3]);
}`, "10\n5\n")
}

func TestPrintChar(t *testing.T) {
	expect(t, `void main() { printchar(72); printchar(105); printchar(10); }`, "Hi\n")
}

func TestAddrTakenScalarGoesToFrame(t *testing.T) {
	prog := compile(t, `
void main() {
    int x;
    int *p;
    p = &x;
    *p = 1;
    print(x);
}`)
	main := prog.Lookup("main")
	found := false
	for _, obj := range main.FrameObjs {
		if obj.Name == "x" {
			found = true
		}
	}
	if !found {
		t.Errorf("address-taken x not in frame objects: %v", main.FrameObjs)
	}
}

func TestPlainScalarStaysInRegisters(t *testing.T) {
	prog := compile(t, `
void main() {
    int x;
    int y;
    x = 1;
    y = x + 2;
    print(y);
}`)
	main := prog.Lookup("main")
	if len(main.FrameObjs) != 0 {
		t.Errorf("unexpected frame objects: %v", main.FrameObjs)
	}
	// No loads or stores should be emitted at all.
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			op := b.Instrs[i].Op
			if op == ir.OpLoad || op == ir.OpStore {
				t.Errorf("unexpected memory op: %s", b.Instrs[i].String())
			}
		}
	}
}

func TestMemRefMetadata(t *testing.T) {
	prog := compile(t, `
int g;
int a[10];
void main() {
    int *p;
    g = 1;
    a[2] = g;
    p = &g;
    *p = 3;
}`)
	main := prog.Lookup("main")
	var kinds []string
	for _, ref := range main.Refs() {
		kinds = append(kinds, ref.Kind.String())
	}
	joined := strings.Join(kinds, ",")
	if !strings.Contains(joined, "scalar") || !strings.Contains(joined, "element") || !strings.Contains(joined, "pointer") {
		t.Errorf("expected scalar, element and pointer refs, got %s", joined)
	}
	// Sites must be uniquely numbered in order.
	for i, ref := range main.Refs() {
		if ref.Site != i {
			t.Errorf("ref %d has site %d", i, ref.Site)
		}
	}
}

func TestCompoundAssignEvaluatesAddressOnce(t *testing.T) {
	// If the address were computed twice, side effects in the index would
	// double; MC has no side-effecting index expressions, so instead count
	// address computations in the IR.
	prog := compile(t, `
int a[10];
void main() {
    a[3] += 5;
}`)
	main := prog.Lookup("main")
	loads, stores := 0, 0
	for _, b := range main.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Op {
			case ir.OpLoad:
				loads++
			case ir.OpStore:
				stores++
			}
		}
	}
	if loads != 1 || stores != 1 {
		t.Errorf("loads=%d stores=%d, want 1 and 1", loads, stores)
	}
}

func TestVoidReturnFallOff(t *testing.T) {
	expect(t, `
void f(int x) { if (x > 0) print(x); }
void main() { f(3); f(-1); }`, "3\n")
}

func TestIntFallOffReturnsZero(t *testing.T) {
	expect(t, `
int f(int x) { if (x > 0) return 7; }
void main() { print(f(1)); print(f(0)); }`, "7\n0\n")
}

func TestNestedCalls(t *testing.T) {
	expect(t, `
int sq(int x) { return x * x; }
void main() { print(sq(sq(2)) + sq(3)); }`, "25\n")
}

func TestManyParams(t *testing.T) {
	expect(t, `
int six(int a, int b, int c, int d, int e, int f) {
    return a + 10 * b + 100 * c + 1000 * d + 10000 * e + 100000 * f;
}
void main() { print(six(1, 2, 3, 4, 5, 6)); }`, "654321\n")
}

func TestWhileWithSideEffectsInCond(t *testing.T) {
	expect(t, `
void main() {
    int n;
    n = 5;
    while (n) {
        print(n);
        n = n - 2;
        if (n < 0) break;
    }
}`, "5\n3\n1\n")
}

// TestBlocksHoldNoSlack: every block irgen returns holds its instructions
// at their exact length, with no spare capacity, for each benchmark under
// both storage policies. A compiled program keeps its IR blocks for as
// long as it is stored.
func TestBlocksHoldNoSlack(t *testing.T) {
	for _, b := range bench.All() {
		f, err := parser.Parse(b.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", b.Name, err)
		}
		info, err := sem.Check(f)
		if err != nil {
			t.Fatalf("%s: check: %v", b.Name, err)
		}
		for _, stack := range []bool{false, true} {
			prog, err := BuildWithOptions(info, Options{StackScalars: stack})
			if err != nil {
				t.Fatalf("%s: irgen: %v", b.Name, err)
			}
			for _, fn := range prog.Funcs {
				for _, blk := range fn.Blocks {
					if cap(blk.Instrs) != len(blk.Instrs) {
						t.Errorf("%s/stack=%v/%s/b%d: cap %d, len %d",
							b.Name, stack, fn.Name, blk.ID, cap(blk.Instrs), len(blk.Instrs))
					}
				}
			}
		}
	}
}
