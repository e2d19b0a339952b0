package experiments

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/costmodel"
)

func TestLeastSquares3(t *testing.T) {
	// Recover known coefficients from noise-free data.
	want := [3]float64{500, 3, 7}
	var a [][]float64
	var b []float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		row := []float64{float64(1 + rng.Intn(100)), float64(1000 + rng.Intn(100000)), float64(rng.Intn(5000))}
		a = append(a, row)
		b = append(b, want[0]*row[0]+want[1]*row[1]+want[2]*row[2])
	}
	got := leastSquares(a, b)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6*want[i] {
			t.Errorf("coef %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCalibrateSaveLoad runs the real calibration once, both parts, and
// requires that the profile MarshalProfile writes passes both readers'
// validation: costmodel.Load, the only way a calibrated model reaches
// mcsd, and LoadProfile, the one mcsbench -calibration uses, which must
// return both parts as calibrated. It takes several seconds: the lookup
// experiment scales with the LLC, not with NCal.
func TestCalibrateSaveLoad(t *testing.T) {
	m, err := Calibrate(CalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := CalibratePaper(CalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalProfile(m, pm)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := costmodel.Load(path); err != nil {
		t.Fatalf("a calibrated profile fails costmodel.Load: %v", err)
	}
	gotM, gotPM, err := LoadProfile(path)
	if err != nil {
		t.Fatalf("a calibrated profile fails LoadProfile: %v", err)
	}
	if gotM.C != m.C || gotM.L2 != m.L2 || gotM.LLC != m.LLC || !reflect.DeepEqual(gotPM, pm) {
		t.Errorf("round trip: got %+v and %+v, want %+v and %+v", gotM, gotPM, m, pm)
	}
}
