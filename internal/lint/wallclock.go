package lint

import "go/ast"

// Wallclock flags every call that reads the wall clock. The repository's
// artifacts are content-addressed and its goldens byte-compared, so a
// time.Now that leaks into a hashed or emitted field silently breaks
// byte-identical reproduction. Legitimate timing seams — latency metrics
// in internal/serve, sweep elapsed time in internal/sweep and the
// experiment benchmarks — carry //unilint:ok wallclock annotations naming
// why the value can never reach deterministic output.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "time.Now/Since/Until outside annotated timing seams",
	Run:  runWallclock,
}

var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallclock(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, name, ok := stdFunc(pass, call); ok && pkg == "time" && wallclockFuncs[name] {
				pass.Reportf(call.Pos(), "time.%s reads the wall clock; keep it out of hashed or golden output (annotate timing seams)", name)
			}
			return true
		})
	}
}
