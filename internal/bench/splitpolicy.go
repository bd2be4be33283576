package bench

import (
	"fmt"
	"io"
	"strings"

	"bvtree/internal/bangfile"
	"bvtree/internal/bvtree"
	"bvtree/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "cmp-split-policy",
		Title: "§1: directory split policies — BANG (balanced+forced) vs LSD/Buddy (first partition) vs BV (promotion)",
		Run:   runCmpSplitPolicy,
	})
}

func runCmpSplitPolicy(w io.Writer, scale int) error {
	n := 20000 * scale
	t := newTable(w, "workload", "index", "height", "forced splits",
		"dir occ min/avg", "data occ min/avg")
	// floored names, per workload, the indexes whose row shows zero forced
	// splits and both minimum occupancies at or above 1/3.
	floored := map[workload.Kind][]string{}
	row := func(kind workload.Kind, name string, height int, forced uint64, dirMin, dirAvg, datMin, datAvg float64) {
		t.row(string(kind), name, height, forced,
			fmt.Sprintf("%.0f%%/%.0f%%", dirMin*100, dirAvg*100),
			fmt.Sprintf("%.0f%%/%.0f%%", datMin*100, datAvg*100))
		if floor := 1 - 1e-9; forced == 0 && 3*dirMin >= floor && 3*datMin >= floor {
			floored[kind] = append(floored[kind], name)
		}
	}
	kinds := []workload.Kind{workload.Clustered, workload.Nested}
	for _, kind := range kinds {
		pts, err := workload.Generate(kind, 2, n, 17)
		if err != nil {
			return err
		}

		for _, pol := range []struct {
			name   string
			policy bangfile.SplitPolicy
		}{
			{"BANG (balanced)", bangfile.SplitBalanced},
			{"LSD/Buddy (first partition)", bangfile.SplitFirstPartition},
		} {
			tr, err := bangfile.New(bangfile.Options{Dims: 2, DataCapacity: 8, Fanout: 8, Policy: pol.policy})
			if err != nil {
				return err
			}
			for i, p := range pts {
				if err := tr.Insert(p, uint64(i)); err != nil {
					return err
				}
			}
			_, dirMin, dirAvg := tr.IndexOccupancySummary()
			_, datMin, datAvg := tr.OccupancySummary()
			row(kind, pol.name, tr.Height(), tr.Stats().ForcedSplits, dirMin, dirAvg, datMin, datAvg)
		}

		bv, err := buildBV(bvtree.Options{Dims: 2, DataCapacity: 8, Fanout: 8}, pts)
		if err != nil {
			return err
		}
		st, err := bv.CollectStats()
		if err != nil {
			return err
		}
		dirMin, dirAvg := 101.0, 0.0
		nodes := 0
		for lvl, ls := range st.IndexLevels {
			if lvl == st.Height {
				continue // root exempt, as in the B-tree
			}
			if ls.MinOccPct < dirMin {
				dirMin = ls.MinOccPct
			}
			dirAvg += ls.AvgOccPct * float64(ls.Nodes)
			nodes += ls.Nodes
		}
		if nodes > 0 {
			dirAvg /= float64(nodes)
		} else {
			dirMin = 0
		}
		row(kind, "BV-tree (promotion)", st.Height, 0, dirMin/100, dirAvg/100, st.DataMinOcc, st.DataAvgOcc)
	}
	t.flush()
	fmt.Fprintln(w, "shape check: balanced splits force spanning-region cascades; the LSD/Buddy")
	fmt.Fprintln(w, "first-partition policy avoids (most of) them but abandons directory occupancy")
	fmt.Fprintln(w, "control (§1). Zero forced splits with both 1/3 floors (directory and data), as measured:")
	for _, kind := range kinds {
		names := "none"
		if len(floored[kind]) > 0 {
			names = strings.Join(floored[kind], ", ")
		}
		fmt.Fprintf(w, "  %s: %s\n", kind, names)
	}
	return nil
}
