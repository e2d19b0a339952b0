package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/mergesort/paper"
	"repro/internal/plan"
)

// savedBuiltin is a profile of Builtin() that the since-deleted
// costmodel.Model.Save wrote while the model still held the paper
// kernel's term: the default paper constants in C.Bank and
// C.OVCMergeDiscount, and Fanout 8.
var savedBuiltin = filepath.Join("..", "costmodel", "testdata", "profile_builtin_with_paper_term.json")

// TestProfileLayoutUnchanged: MarshalProfile writes Builtin and the
// default paper term byte for byte as the since-deleted
// costmodel.Model.Save wrote them while the model held that term, so a
// profile keeps its keys across the split and older readers, which
// validate C.Bank and Fanout, still load it.
func TestProfileLayoutUnchanged(t *testing.T) {
	want, err := os.ReadFile(savedBuiltin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalProfile(costmodel.Builtin(), paper.DefaultModel())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("MarshalProfile(Builtin, DefaultModel):\n%s\nwant\n%s", got, want)
	}
}

// TestLoadProfileReadsSavedBuiltin loads the saved Builtin profile with
// both parts and requires them to price the plan golden's inputs
// (internal/planner's TestPlanGolden) bit for bit as Builtin with the
// default paper term does, at the golden's OVC discounts.
func TestLoadProfileReadsSavedBuiltin(t *testing.T) {
	m, pm, err := LoadProfile(savedBuiltin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pm, paper.DefaultModel()) {
		t.Errorf("paper term %+v, want %+v", pm, paper.DefaultModel())
	}
	stats := []costmodel.Stats{
		uniformStats(9, 1<<14, []int{17, 30, 12}, []int{1 << 10, 1 << 12, 1 << 8}),
		uniformStats(31, 1<<20, []int{15, 31}, []int{16, 4}),
		uniformStats(21, 1<<18, []int{9, 14, 20}, []int{300, 9000, 200000}),
	}
	stats[2].LimitGroups = 50
	for _, disc := range []float64{0, 0.9} {
		loadedTerm, defaultTerm := *pm, *paper.DefaultModel()
		loadedTerm.OVCMergeDiscount, defaultTerm.OVCMergeDiscount = disc, disc
		loaded, builtin := *m, *costmodel.Builtin()
		for _, sort := range []costmodel.SortTerm{nil, loadedTerm.Sort} {
			loaded.Sort, builtin.Sort = sort, nil
			if sort != nil {
				builtin.Sort = defaultTerm.Sort
			}
			for _, st := range stats {
				for _, p := range []plan.Plan{plan.ColumnAtATime(widthsOf(st)), plan.FromWidths([]int{st.TotalWidth() - 16, 16})} {
					if got, want := loaded.TMCS(p, st), builtin.TMCS(p, st); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("disc %v, term %v, plan %v: loaded %v, builtin %v", disc, sort != nil, p, got, want)
					}
				}
			}
		}
	}
}

func widthsOf(st costmodel.Stats) []int {
	w := make([]int, len(st.Cols))
	for i, c := range st.Cols {
		w[i] = c.Width
	}
	return w
}

// TestLoadProfileRejectsMalformedPaperTerm pins LoadProfile's check of
// the paper keys, which costmodel.Load ignores: a term must price every
// bank a plan may use with non-negative constants. Zero constants stay
// legal, as calibration clamps noise to 0.
func TestLoadProfileRejectsMalformedPaperTerm(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(pm *paper.Model)
		ok     bool
	}{
		{"default", func(*paper.Model) {}, true},
		{"zero COverhead", func(pm *paper.Model) {
			for _, b := range plan.Banks {
				bc := pm.Bank[b]
				bc.COverhead = 0
				pm.Bank[b] = bc
			}
		}, true},
		{"negative COutOfCache", func(pm *paper.Model) {
			bc := pm.Bank[32]
			bc.COutOfCache = -0.5
			pm.Bank[32] = bc
		}, false},
		{"no bank 64", func(pm *paper.Model) { delete(pm.Bank, 64) }, false},
		{"negative OVC discount", func(pm *paper.Model) { pm.OVCMergeDiscount = -0.1 }, false},
	}
	for _, c := range cases {
		pm := paper.DefaultModel()
		c.mutate(pm)
		data, err := MarshalProfile(costmodel.Builtin(), pm)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cal.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := costmodel.Load(path); err != nil {
			t.Errorf("%s: costmodel.Load must ignore the paper keys: %v", c.name, err)
		}
		if _, _, err := LoadProfile(path); (err == nil) != c.ok {
			t.Errorf("%s: LoadProfile error = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
