package experiments

import (
	"fmt"

	"shadowblock/internal/core"
	"shadowblock/internal/oram"
	"shadowblock/internal/rng"
)

// occupancy is the §IV-B stash-overflow argument as a measurement: over
// random request streams — uniform traffic, the worst case for stash
// pressure — the stash's real-block high-water mark under every shadow
// configuration equals Tiny ORAM's exactly (Rule-3: shadows are always
// replaceable), while the shadow population rides in the spare capacity.
// One row per seed; the note is the verdict.
func occupancy(r Runner) (*Table, error) {
	cfgs := []core.Config{core.RDOnly(), core.HDOnly(), core.Static(4), core.Dynamic(3)}
	t := &Table{
		Title:   "Stash occupancy (§IV-B): real-block high-water marks, Tiny vs shadow schemes",
		Label:   "seed",
		Columns: cols("%.0f", "tiny-real", "rd-real", "hd-real", "s4-real", "d3-real", "d3-shadowroom"),
		Note:    "EQUAL: Rule-3 holds — shadows never add stash pressure\n",
	}
	n := max(r.Refs/4, 1000)
	drive := func(ctrl *oram.Controller, seed uint64) float64 {
		x := rng.NewXoshiro(seed)
		space := uint64(ctrl.NumDataBlocks())
		for i := 0; i < n; i++ {
			ctrl.Request(int64(i)*1200, uint32(x.Uint64n(space)), x.Float64() < 0.3)
		}
		return float64(ctrl.Stash().MaxRealOccupancy())
	}
	ocfg := oram.Default()
	ocfg.DisableShadowHits = true // identical request streams across schemes
	for seed := uint64(1); seed <= 5; seed++ {
		tiny := drive(oram.MustNew(ocfg, nil), seed)
		row := Row{Label: fmt.Sprintf("%d", seed), Values: []float64{tiny}}
		var ctrl *oram.Controller
		for _, pc := range cfgs {
			var err error
			if ctrl, _, err = core.New(ocfg, pc); err != nil {
				return nil, err
			}
			got := drive(ctrl, seed)
			if got != tiny {
				t.Note = "MISMATCH: investigate\n"
			}
			row.Values = append(row.Values, got)
		}
		// The last scheme's (dynamic-3's) shadow headroom.
		row.Values = append(row.Values, float64(ctrl.Stash().MaxOccupancy()-ctrl.Stash().MaxRealOccupancy()))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
