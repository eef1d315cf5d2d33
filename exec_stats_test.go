package inpg_test

// Host-side execution counters (System.ExecStats): they describe how the
// engine ran a simulation, so they must account for every simulated cycle,
// follow the scheduling mode, and repeat exactly for a fixed config.

import (
	"testing"

	"inpg"
	"inpg/internal/sim"
)

func execRun(t *testing.T, cfg inpg.Config) (*inpg.Results, sim.ExecStats, int) {
	t.Helper()
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, sys.ExecStats(), sys.Engine().TickerCount()
}

func execConfig() inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = 4, 4
	cfg.Mechanism = inpg.INPGOCOR
	cfg.Lock = inpg.LockQSL
	cfg.CSPerThread = 3
	cfg.ParallelCycles = 3000
	cfg.ParallelJitter = 500
	cfg.Seed = 7
	return cfg
}

func TestExecStatsAccountForEveryCycle(t *testing.T) {
	for _, always := range []bool{false, true} {
		cfg := execConfig()
		cfg.AlwaysTick = always
		res, st, tickers := execRun(t, cfg)
		if got := st.Passes + st.FastForwarded; got != res.Runtime {
			t.Errorf("alwaysTick=%v: %d stepped + %d fast-forwarded = %d cycles, want Runtime %d",
				always, st.Passes, st.FastForwarded, got, res.Runtime)
		}
		if st.Events == 0 {
			t.Errorf("alwaysTick=%v: no events fired", always)
		}
		if always {
			if st.FastForwarded != 0 {
				t.Errorf("always-tick run fast-forwarded %d cycles", st.FastForwarded)
			}
			if want := st.Passes * uint64(tickers); st.Ticks != want {
				t.Errorf("always-tick ticks = %d, want passes × tickers = %d × %d = %d",
					st.Ticks, st.Passes, tickers, want)
			}
		}
	}
}

func TestExecStatsActivityTicksFewer(t *testing.T) {
	_, act, _ := execRun(t, execConfig())
	cfg := execConfig()
	cfg.AlwaysTick = true
	_, always, _ := execRun(t, cfg)
	if act.Ticks >= always.Ticks {
		t.Fatalf("activity-driven run ticked %d times, always-tick %d: sleeping saved nothing", act.Ticks, always.Ticks)
	}
	if act.FastForwarded == 0 {
		t.Error("activity-driven run never fast-forwarded over its 3000-cycle parallel phases")
	}
}

func TestExecStatsDeterministic(t *testing.T) {
	_, a, _ := execRun(t, execConfig())
	_, b, _ := execRun(t, execConfig())
	if a != b {
		t.Fatalf("two runs of one config report different counts:\n%+v\n%+v", a, b)
	}
	if a.FarEvents == 0 {
		t.Fatal("no far events: the 3000-cycle parallel phases should schedule past the calendar's wheel")
	}
	// A sharded run steps, fires and skips the same cycles. Its tick count
	// may be lower: a cross-shard wake lands at the barrier, after the
	// woken ticker's turn in the pass, where the single-threaded pass
	// would have given it a no-op tick.
	cfg := execConfig()
	cfg.Shards = 2
	_, c, _ := execRun(t, cfg)
	if c.Passes != a.Passes || c.Events != a.Events || c.FastForwarded != a.FastForwarded ||
		c.FarEvents != a.FarEvents || c.Ticks > a.Ticks {
		t.Fatalf("2-shard run counts diverge from the single-threaded run:\n%+v\n%+v", c, a)
	}
}

// TestFarEventsRareWhenContended runs the contended 8×8 shape (all 64
// cores on one lock, short parallel phases) under each lock kind: nearly
// every event must be due within the event calendar's wheel, so the
// heap tier carries at most 1% of them (about 0.24% when measured).
func TestFarEventsRareWhenContended(t *testing.T) {
	var events, far uint64
	for _, lk := range []inpg.LockKind{inpg.LockTAS, inpg.LockTTL, inpg.LockMCS, inpg.LockQSL} {
		cfg := inpg.DefaultConfig()
		cfg.Lock = lk
		cfg.Mechanism = inpg.INPGOCOR
		cfg.CSPerThread = 3
		cfg.CSCycles = 100
		cfg.ParallelCycles = 1500
		cfg.Seed = 1
		_, st, _ := execRun(t, cfg)
		if st.FarEvents == 0 {
			t.Errorf("%v: no far events; the parallel phases alone should schedule some", lk)
		}
		events += st.Events
		far += st.FarEvents
	}
	if far*100 > events {
		t.Fatalf("%d of %d events took the far tier (%.2f%%), want at most 1%%", far, events, 100*float64(far)/float64(events))
	}
}
