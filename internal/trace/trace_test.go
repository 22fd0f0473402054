package trace

import "testing"

func TestCount(t *testing.T) {
	tr := Trace{
		{Kind: Load, Bypass: true, Last: true},
		{Kind: Store},
		{Kind: Load},
	}
	c := tr.Count()
	if c.Refs != 3 || c.Loads != 2 || c.Stores != 1 || c.Bypass != 1 || c.Last != 1 {
		t.Errorf("counts = %+v", c)
	}
}
