package netpowerprop

// The option guard: every exported field of an option type a main builds
// must be set or read by non-test code outside the package that declares
// it, so no option exists only for tests to turn while every replica runs
// its default.

import (
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// optionTypes are the option structs the mains of the root and bench/
// modules build.
var optionTypes = []string{
	"netpowerprop/internal/engine.Options",
	"netpowerprop/internal/jobs.Options",
	"netpowerprop/internal/jobs.RetryPolicy",
	"netpowerprop/internal/cluster.Options",
	"netpowerprop/internal/admit.Options",
	"netpowerprop/internal/cosim.Config",
}

// testOnlyOptionKeep names the option fields that only tests set, each
// with the reason it stays.
var testOnlyOptionKeep = map[string]string{
	"netpowerprop/internal/jobs.Options.Clock":       "the fake-clock seam: retry, drain and settle-order tests run the manager on a clock they control",
	"netpowerprop/internal/cluster.Options.Now":      "the fake-clock seam for breaker cooldowns and the incarnation stamp",
	"netpowerprop/internal/cluster.Options.Exchange": "the gossip transport seam: tests wire replicas in memory instead of over HTTP",
	"netpowerprop/internal/admit.Options.Now":        "the fake-clock seam for token refill and the adaptive shed walk",
	"netpowerprop/internal/jobs.RetryPolicy.Jitter":  "its zero value means two things: the cluster calls Delay on its raw policy, so its forward retries have no jitter, while jobs turns zero into 0.5 through withDefaults; folding the two would change cluster retry timing",
}

func TestNoTestOnlyOptions(t *testing.T) {
	p, err := loadProgram(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	rel := func(v *types.Var) string {
		pos := p.fset.Position(v.Pos())
		if r, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = r
		}
		return pos.String()
	}
	// A use counts when it lies in another directory than the field's
	// declaration: one package per directory, and the program holds no
	// test files.
	used := map[*types.Var]bool{}
	for id, obj := range p.info.Uses {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			continue
		}
		if filepath.Dir(p.fset.Position(id.Pos()).Filename) != filepath.Dir(p.fset.Position(v.Pos()).Filename) {
			used[v] = true
		}
	}
	fields := map[string]*types.Var{}
	var unused []string
	for _, name := range optionTypes {
		tn, ok := p.byName[name].(*types.TypeName)
		if !ok {
			t.Errorf("option type %s not found", name)
			continue
		}
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			full := name + "." + f.Name()
			fields[full] = f
			if f.Exported() && !used[f] && testOnlyOptionKeep[full] == "" {
				unused = append(unused, full+" ("+rel(f)+")")
			}
		}
	}
	keep := make([]string, 0, len(testOnlyOptionKeep))
	for name := range testOnlyOptionKeep {
		keep = append(keep, name)
	}
	sort.Strings(keep)
	for _, name := range keep {
		switch f, ok := fields[name]; {
		case !ok:
			t.Errorf("keep-list entry %s no longer exists; drop it", name)
		case used[f]:
			t.Errorf("keep-list entry %s is used outside its package; drop it", name)
		}
	}
	for _, u := range unused {
		t.Errorf("only tests set or read %s", u)
	}
}
