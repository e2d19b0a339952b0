package experiments

import (
	"math"
	"math/rand"
	"path/filepath"
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

// TestCalibrateSaveLoad runs the real calibration once and requires
// that the profile it saves passes costmodel.Load's validation, the
// only way a calibrated model reaches mcsd. It takes several seconds:
// the lookup experiment scales with the LLC, not with NCal.
func TestCalibrateSaveLoad(t *testing.T) {
	m, err := Calibrate(CalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := costmodel.Load(path); err != nil {
		t.Fatalf("a calibrated profile fails Load: %v", err)
	}
}
