package sjtree

import (
	"fmt"
	"testing"
)

// TestExpiryBound gates window expiry as an invariant of its own. Expiry
// changes no output — a stale match never passes a join's window test —
// so no match-set test notices when it stops working; only memory does.
// Here every ExpireBefore(cutoff) of a script is followed by runScript's
// checks: EachStored yields no match with MinTS < cutoff, the tree holds
// exactly what the full-scan reference holds (Stats().Stored included),
// and the same cutoff again evicts nothing and leaves ExpireScanned where
// it was. The scripts are the clocked shapes of the differential net —
// timestamps in order, regressing inside the window and beyond it (with
// cutoffs that regress too), and gaps of three windows, which lap the
// timing wheel — over a wheel of unit buckets (window 200), one of wider
// buckets (window 600) and a tree with Window == 0, which no engine
// sweeps but whose ExpireBefore must be as exact. A sweep must also not
// leave a slab under an eighth full (store.compact). Stubbing out expiry
// (ExpireBefore or store.expire evicting nothing, or less than it
// should) fails the first sweep that has something to evict.
func TestExpiryBound(t *testing.T) {
	leaves := [][]int{{0}, {1}, {2}}
	for _, w := range []struct{ window, span int64 }{{200, 200}, {600, 600}, {0, 200}} {
		for _, shape := range clockedShapes {
			for _, dedup := range []bool{false, true} {
				c := scriptConfig{seed: 1 + w.span, leaves: leaves, window: w.window, span: w.span, shape: shape, dedup: dedup}
				t.Run(fmt.Sprintf("window=%d/%v/dedup=%v", w.window, shape, dedup), func(t *testing.T) {
					tr, compactions := runScript(t, c)
					st := tr.Stats()
					if st.Evicted == 0 || st.Emitted == 0 {
						t.Fatalf("%d evicted, %d emitted: the script exercised nothing", st.Evicted, st.Emitted)
					}
					// A gap empties every table at once: the slabs must be
					// rebuilt small, and go on working.
					if shape == shapeGap && compactions == 0 {
						t.Errorf("no slab was compacted")
					}
					// In order, a sweep reads what it evicts and the rest of
					// one bucket.
					if shape == shapeInOrder && float64(st.ExpireScanned) > 1.3*float64(st.Evicted) {
						t.Errorf("scanned %d stored matches to evict %d, want <= 1.3 per eviction", st.ExpireScanned, st.Evicted)
					}
					t.Logf("evicted %d, scanned %d, peak stored %d, %d compactions", st.Evicted, st.ExpireScanned, st.PeakStored, compactions)
				})
			}
		}
	}
}
