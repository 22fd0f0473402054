package exact

import (
	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/ir"
)

// AnalyzePowerset is AnalyzeWith under the power-set reference solver.
func AnalyzePowerset(p *ir.Program, ccfg cache.Config, opt check.Options, xopt Options) (*Report, error) {
	return analyze(p, ccfg, opt, xopt, (*focus).solve)
}

// AnalyzeDense is AnalyzeWith under the dense reference solver.
func AnalyzeDense(p *ir.Program, ccfg cache.Config, opt check.Options, xopt Options) (*Report, error) {
	return analyze(p, ccfg, opt, xopt, (*focus).solveDense)
}
