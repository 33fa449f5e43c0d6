package analysis

import "testing"

// TestSummaryPurity pins the purity summary mapiterdet excuses calls
// with: writing a field or element through a receiver or parameter is
// caller-visible, rebinding the parameter variable or writing through
// the function's own variables is not.
func TestSummaryPurity(t *testing.T) {
	pkg, err := LoadDir("../testdata/src", "purity")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"Mutate":      false,
		"MutateParam": false,
		"MutateElem":  false,
		"DeleteParam": false,
		"PureRead":    true,
		"Rebind":      true,
		"LocalWrite":  true,
	}
	g, sums := pkg.Interproc()
	for _, n := range g.Nodes {
		name := n.Obj.Name()
		w, ok := want[name]
		if !ok {
			t.Errorf("unexpected function %s in the fixture", name)
			continue
		}
		if got := sums[n.Obj].Pure; got != w {
			t.Errorf("%s: Pure=%v, want %v", name, got, w)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("fixture has no function %s", name)
	}
}
