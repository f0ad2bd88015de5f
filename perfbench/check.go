package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"qfarith/internal/experiment"
	"qfarith/internal/qft"
)

// checkPanelCSV verifies a panel CSV at any seed: it parses with the
// program's own reader, holds exactly one row per (rate, depth) cell of
// the panel's grid, and its noiseless full-depth cell reports the exact
// circuit's result: 100% success, fidelity 1.0000 and w0 1. When
// wantDigest is non-empty the CSV bytes must also hash to it.
func checkPanelCSV(csv string, pc experiment.PanelConfig, wantDigest string) error {
	if wantDigest != "" {
		sum := sha256.Sum256([]byte(csv))
		if got := hex.EncodeToString(sum[:]); got != wantDigest {
			return fmt.Errorf("CSV sha256 %s, pinned %s", got, wantDigest)
		}
	}
	rows, err := experiment.ParseCSV(csv)
	if err != nil {
		return err
	}
	if want := len(pc.Rates) * len(pc.Depths); len(rows) != want {
		return fmt.Errorf("CSV has %d rows, grid has %d cells", len(rows), want)
	}
	regWidth := pc.Geometry.YBits
	if pc.Geometry.Op == experiment.OpMul || pc.Geometry.Op == experiment.OpMulSigned {
		regWidth++
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[fmt.Sprintf("%.3f/%s", r.RatePct, r.Depth)] = true
	}
	for _, rate := range pc.Rates {
		for _, d := range pc.Depths {
			label := experiment.DepthLabel(d, regWidth)
			if !seen[fmt.Sprintf("%.3f/%s", rate*100, label)] {
				return fmt.Errorf("CSV lacks cell rate=%.3f%% depth=%s", rate*100, label)
			}
		}
	}
	checked := false
	for _, r := range rows {
		if r.RatePct != 0 || r.Depth != experiment.DepthLabel(qft.Full, regWidth) {
			continue
		}
		if r.Success != 100 || r.Fidelity != 1 || r.W0 != 1 {
			return fmt.Errorf("noiseless full-depth cell reports success %.2f%%, fidelity %.4f, w0 %.5f (want 100, 1, 1)",
				r.Success, r.Fidelity, r.W0)
		}
		checked = true
	}
	if !checked && containsZero(pc.Rates) {
		return fmt.Errorf("CSV lacks the noiseless full-depth cell")
	}
	return nil
}

func containsZero(xs []float64) bool {
	for _, x := range xs {
		if x == 0 {
			return true
		}
	}
	return false
}
