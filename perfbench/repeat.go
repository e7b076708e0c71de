package main

import (
	"context"
	"fmt"
)

// repeatCheck runs publish and serve twice at one seed with fixed work.
// Counts the seed alone decides must repeat exactly; counts that depend
// on the order GC picks files in are printed with their spread. Each
// count comes from the formula that reports it as a metric. The runs
// are pass A, whose device hooks count page programs.
func repeatCheck(ctx context.Context, seed int64, seconds int) error {
	type count struct {
		name string
		x    [2]float64
	}
	reads := 2000 * seconds
	exact := []count{{name: "dedup_saving"}, {name: "bifrost.dedup_keys"}, {name: "core.traceback_ratio (serve)"}}
	spread := []count{{name: "write_amp"}, {name: "aof.gc_runs"}, {name: "aof.gc_moved_MB"}, {name: "aof.gc_freed_MB"}, {name: "ssd.pages_programmed_per_MB"}}
	for i := 0; i < 2; i++ {
		pub, err := runPass(ctx, passA, wlPublish, planFor(wlPublish, seconds), seed)
		if err != nil {
			return err
		}
		srv, err := runPass(ctx, passA, wlServe, plan{reads: [2]int{reads, reads}}, seed)
		if err != nil {
			return err
		}
		if pub.failed+srv.failed > 0 {
			report(pub)
			report(srv)
			return fmt.Errorf("run %d: operations failed", i+1)
		}
		e2e := endToEnd(wlPublish, pub, pub.setup.Seconds())
		g := aofGC(pub)
		exact[0].x[i] = e2e.vals["dedup_saving"].Value
		exact[1].x[i] = float64(pub.pub.dedupKeys)
		exact[2].x[i] = tracebackRatio(srv)
		spread[0].x[i] = e2e.vals["write_amp"].Value
		spread[1].x[i] = g.runs
		spread[2].x[i] = g.movedMB
		spread[3].x[i] = g.freedMB
		spread[4].x[i] = pagesProgrammedPerMB(pub)
	}
	fmt.Printf("repeat check at seed %d: publish %d versions, serve %d GETs per client, twice\n", seed, planFor(wlPublish, seconds).versions, reads)
	failed := 0
	for _, c := range exact {
		verdict := "equal"
		if c.x[0] != c.x[1] {
			verdict = "DIFFERENT"
			failed++
		}
		fmt.Printf("  %-30s %14.6f %14.6f  %s\n", c.name, c.x[0], c.x[1], verdict)
	}
	fmt.Println("GC-order dependent (aof.Store.Candidates breaks occupancy ties in map order):")
	for _, c := range spread {
		fmt.Printf("  %-30s %14.6f %14.6f  spread %.4f%%\n", c.name, c.x[0], c.x[1], 100*ratio(c.x[1]-c.x[0], c.x[0]))
	}
	if failed > 0 {
		return fmt.Errorf("%d seed-determined counts differ between two runs at seed %d", failed, seed)
	}
	return nil
}
