package main

import (
	"fmt"

	"inpg"
	"inpg/internal/experiments"
	"inpg/internal/workload"
)

// workloadDef is one benchmark workload: a fixed list of simulation cells
// generated from the workload seed. The program only ever sees the
// generated configurations.
type workloadDef struct {
	name string
	why  string
	// cells returns the workload's cells for a seed. tiny shrinks every
	// cell so the harness tests finish in seconds; tiny cells have no
	// golden values.
	cells func(seed int64, tiny bool) []inpg.Config
	// sweep marks the workload that runs through experiments.RunSuite
	// (runner, manifests, resume) instead of calling inpg.New/Run itself.
	sweep bool
	// passSeconds turns --seconds into a fixed pass count,
	// round(seconds/passSeconds), so a run always measures the same whole
	// passes whatever the program's speed: a faster program does the same
	// work in less time. It is near one pass's CPU time on the 2-CPU
	// reference host; mesh16 and sweep (about 4.5 s each) are budgeted
	// lower so that a 20 s run still takes six medians' worth of passes.
	passSeconds float64
}

// The four workloads. Their order is the order the doc and the golden
// file use.
var workloads = []workloadDef{
	{
		name:        "hotlock",
		why:         "all 64 cores on one lock under 4 locks x 4 mechanisms: routers, VC/switch allocation, coherence and big routers busy every cycle",
		cells:       hotlockCells,
		passSeconds: 3.0,
	},
	{
		name:        "idle",
		why:         "TTL with 30k-cycle parallel phases: a quiescent chip where the event heap, wake/sleep and fast-forward dominate",
		cells:       idleCells,
		passSeconds: 1.6,
	},
	{
		name:        "mesh16",
		why:         "16x16 mesh with auto shards: the only workload on the sharded pass, with per-cycle O(tickers) costs 4x the 8x8 ones",
		cells:       mesh16Cells,
		passSeconds: 3.6,
	},
	{
		name:        "sweep",
		why:         "the Fig. 11/12 suite via experiments.RunSuite, then resumed from its manifests: runner, experiments and manifest I/O",
		cells:       sweepCells,
		sweep:       true,
		passSeconds: 3.3,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// hotlockCells is the BenchmarkSimulatorThroughput shape over
// {TAS, TTL, MCS, QSL} x the four mechanisms: every core contends for
// one global lock with short parallel phases.
func hotlockCells(seed int64, tiny bool) []inpg.Config {
	var out []inpg.Config
	for _, lk := range []inpg.LockKind{inpg.LockTAS, inpg.LockTTL, inpg.LockMCS, inpg.LockQSL} {
		for _, mech := range inpg.Mechanisms {
			cfg := inpg.DefaultConfig()
			cfg.Lock = lk
			cfg.Mechanism = mech
			cfg.CSPerThread = 3
			cfg.CSCycles = 100
			cfg.ParallelCycles = 1500
			cfg.Seed = seed
			if tiny {
				cfg.MeshWidth, cfg.MeshHeight = 4, 4
				cfg.CSPerThread = 1
			}
			out = append(out, cfg)
		}
	}
	return out
}

// idleSeedsPerMechanism sets the idle workload's size: its cells are
// short, so it takes many of them to make a pass long enough to time.
const idleSeedsPerMechanism = 12

// idleCells is the BenchmarkSimulatorIdleHeavy shape: TTL with long
// parallel phases, the four mechanisms x idleSeedsPerMechanism seeds
// derived from the workload seed. Every cell has a seed of its own: when
// the four mechanisms shared each seed, their work rose and fell
// together, and a pass's total flits varied by ±12% across workload
// seeds 1-10 instead of ±4%.
func idleCells(seed int64, tiny bool) []inpg.Config {
	n := idleSeedsPerMechanism
	if tiny {
		n = 1
	}
	var out []inpg.Config
	for m, mech := range inpg.Mechanisms {
		for k := 0; k < n; k++ {
			cfg := inpg.DefaultConfig()
			cfg.Lock = inpg.LockTTL
			cfg.Mechanism = mech
			cfg.CSPerThread = 3
			cfg.CSCycles = 50
			cfg.CSJitter = 15
			cfg.ParallelCycles = 30_000
			cfg.ParallelJitter = 5_000
			cfg.Seed = seed*1000 + int64(m*n+k)
			if tiny {
				cfg.MeshWidth, cfg.MeshHeight = 4, 4
				cfg.CSPerThread = 1
			}
			out = append(out, cfg)
		}
	}
	return out
}

// mesh16Cells is the BenchmarkSimulatorLargeMesh shape on a 16x16 mesh:
// {TTL, QSL} x {Original, iNPG+OCOR}, with the shard count the CLIs'
// default resolves to. QSL runs two critical sections per thread: with
// one, its runtime is bimodal across seeds (91k or 238k cycles for the
// same shape), which made the pass length depend on the seed.
func mesh16Cells(seed int64, tiny bool) []inpg.Config {
	dim := 16
	if tiny {
		dim = 8
	}
	var out []inpg.Config
	for _, c := range []struct {
		lk       inpg.LockKind
		parallel int
		cs       int
	}{{inpg.LockTTL, 2000, 1}, {inpg.LockQSL, 500, 2}} {
		for _, mech := range []inpg.Mechanism{inpg.Original, inpg.INPGOCOR} {
			cfg := inpg.DefaultConfig()
			cfg.MeshWidth, cfg.MeshHeight = dim, dim
			cfg.Mechanism = mech
			cfg.Lock = c.lk
			cfg.CSPerThread = c.cs
			cfg.CSCycles = 50
			cfg.CSJitter = 15
			cfg.ParallelCycles = c.parallel
			cfg.ParallelJitter = c.parallel / 4
			cfg.Seed = seed
			cfg.Shards = inpg.AutoShards(dim, dim)
			out = append(out, cfg)
		}
	}
	return out
}

// sweepName is the sweep label experiments.RunSuite writes its manifests
// under and resumes from.
const sweepName = "fig11_12"

// sweepOptions are the experiments options of the sweep workload: the
// quick-scale Fig. 11/12 suite on one runner worker. One worker keeps
// the pass steady; two swung by 10% on a 2-CPU host.
func sweepOptions(seed int64, tiny bool) experiments.Options {
	o := experiments.DefaultOptions()
	o.Quick = true
	o.Seed = seed
	o.Workers = 1
	if tiny {
		o.Programs = []string{"body", "can"}
		o.Scale = 0.01
	}
	return o
}

// sweepCells rebuilds the configurations RunSuite submits, in its
// submission order (program x mechanism, one seed). The sweep pass checks
// every observed cell against this list, so drift in RunSuite's ordering
// fails loudly instead of silently mis-pairing golden values.
func sweepCells(seed int64, tiny bool) []inpg.Config {
	o := sweepOptions(seed, tiny)
	profiles := workload.Profiles()
	if len(o.Programs) > 0 {
		profiles = nil
		for _, name := range o.Programs {
			p, err := workload.ByName(name)
			if err != nil {
				panic(err) // the names above are fixed and valid
			}
			profiles = append(profiles, p)
		}
	}
	var out []inpg.Config
	for _, p := range profiles {
		for _, mech := range inpg.Mechanisms {
			out = append(out, experiments.ConfigFor(p, mech, inpg.LockQSL, o))
		}
	}
	return out
}
