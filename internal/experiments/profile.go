package experiments

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/costmodel"
	"repro/internal/mergesort/paper"
	"repro/internal/plan"
)

// profileJSON is the layout of a saved calibration: costmodel.Model's
// keys with the paper kernel's term beside them — its per-bank constants
// and OVC discount in C, its merge fanout beside the cache geometry —
// the layout costmodel.Model saved when it held that term. costmodel.Load
// reads the same file and ignores the paper keys; a reader that still
// validates them finds them.
type profileJSON struct {
	C struct {
		costmodel.Constants
		Bank             map[int]paper.BankConstants
		OVCMergeDiscount float64
	}
	L2     int64
	LLC    int64
	Fanout int
}

// MarshalProfile renders a calibration — the production model m and the
// paper kernel's term pm — as one JSON profile (cmd/calibrate's output).
func MarshalProfile(m *costmodel.Model, pm *paper.Model) ([]byte, error) {
	var p profileJSON
	p.C.Constants, p.C.Bank, p.C.OVCMergeDiscount = m.C, pm.Bank, pm.OVCMergeDiscount
	p.L2, p.LLC, p.Fanout = m.L2, m.LLC, paper.DefaultFanout
	return json.MarshalIndent(p, "", "  ")
}

// LoadProfile reads a profile written by MarshalProfile: the production
// model through costmodel.Load, which validates it, and the paper
// kernel's term beside it. It refuses a term that prices no bank a plan
// may use, which would make that bank's sorts free, or that holds a
// negative constant.
func LoadProfile(path string) (*costmodel.Model, *paper.Model, error) {
	m, err := costmodel.Load(path)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var p profileJSON
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, nil, err
	}
	pm := &paper.Model{Bank: p.C.Bank, OVCMergeDiscount: p.C.OVCMergeDiscount}
	if err := validatePaper(pm); err != nil {
		return nil, nil, fmt.Errorf("experiments: profile %s: %w", path, err)
	}
	return m, pm, nil
}

func validatePaper(pm *paper.Model) error {
	for _, bank := range plan.Banks {
		if bc, ok := pm.Bank[bank]; !ok || min(bc.COverhead, bc.CLinear, bc.COutOfCache, pm.OVCMergeDiscount) < 0 {
			return fmt.Errorf("paper term %+v: want constants >= 0 for bank %d", pm, bank)
		}
	}
	return nil
}
