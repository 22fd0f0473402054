package check

import (
	"repro/internal/cache"
	"repro/internal/ir"
)

// AnalyzeCacheOracle is AnalyzeCache over the map-based reference fixed
// point of cachean_oracle_test.go.
var AnalyzeCacheOracle = analyzeCacheOracle

// PrefilterPass runs the must/may fixed point of function fn over its
// site table to convergence and returns a function that sweeps its stable
// in-states once more, for allocation tests of the transfer loop.
func PrefilterPass(p *ir.Program, ccfg cache.Config, opt Options, fn string) (func(), error) {
	m, err := NewSiteModel(p, ccfg, opt)
	if err != nil {
		return nil, err
	}
	pf := m.a.newPrefilter(p.Lookup(fn))
	pf.solve()
	return func() { pf.pass() }, nil
}
