package inpg_test

// Mesh-generality checks: nothing in the stack may assume the default 8×8
// platform. These tests instantiate 16×16 and 32×32 systems end to end —
// topology, big-router deployment, directory homes, thread placement —
// and pin the sharded engine's bit-identity at large scale, where shard
// boundaries cut through real traffic.

import (
	"testing"

	"inpg"
	"inpg/internal/bigrouter"
	"inpg/internal/noc"
)

// largeConfig is a contention-light large-mesh run that still exercises
// the full protocol on every node.
func largeConfig(dim int, mech inpg.Mechanism, lk inpg.LockKind) inpg.Config {
	cfg := inpg.DefaultConfig()
	cfg.MeshWidth, cfg.MeshHeight = dim, dim
	cfg.Mechanism = mech
	cfg.Lock = lk
	cfg.CSPerThread = 1
	cfg.ParallelCycles = 500
	cfg.ParallelJitter = 100
	cfg.Seed = 11
	return cfg
}

func TestSixteenBySixteenAllMechanisms(t *testing.T) {
	for _, mech := range inpg.Mechanisms {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			cfg := largeConfig(16, mech, inpg.LockMCS)
			sys, err := inpg.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			threads := 16 * 16
			if res.Threads != threads {
				t.Fatalf("Threads = %d, want %d", res.Threads, threads)
			}
			if int(res.CSCompleted) != threads*cfg.CSPerThread {
				t.Fatalf("CSCompleted = %d, want %d", res.CSCompleted, threads*cfg.CSPerThread)
			}
		})
	}
}

func TestThirtyTwoByThirtyTwoFullSystem(t *testing.T) {
	cfg := largeConfig(32, inpg.INPG, inpg.LockQSL)
	sys, err := inpg.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	threads := 32 * 32
	if res.Threads != threads {
		t.Fatalf("Threads = %d, want %d", res.Threads, threads)
	}
	if int(res.CSCompleted) != threads {
		t.Fatalf("CSCompleted = %d, want %d", res.CSCompleted, threads)
	}
	if res.Stopped == 0 {
		t.Fatal("no lock request was ever stopped by a big router: iNPG is inert on the large mesh")
	}
}

// TestLargeMeshShardedBitIdentical cuts a 16×16 run into up to 16 row
// stripes and demands results and the full trace stream match the
// single-shard engine (the 8×8 matrix lives in shards_test.go; this pins
// the same property where most routers sit on shard boundaries).
func TestLargeMeshShardedBitIdentical(t *testing.T) {
	cfg := largeConfig(16, inpg.INPGOCOR, inpg.LockMCS)
	base, baseEvents := shardedRun(t, cfg, 1)
	for _, shards := range []int{4, 16} {
		res, events := shardedRun(t, cfg, shards)
		diffRuns(t, "16x16", res, events, base, baseEvents)
	}
}

// TestDeploymentScalesWithMesh checks big-router placement off the 8×8
// default: the half-the-nodes checkerboard on 16×16 and a strided spread
// on 32×32 must cover the mesh without duplicates.
func TestDeploymentScalesWithMesh(t *testing.T) {
	m := noc.Mesh{Width: 16, Height: 16}
	nodes := bigrouter.Deployment(m, 128)
	if len(nodes) != 128 {
		t.Fatalf("checkerboard deployment on 16x16 placed %d big routers, want 128", len(nodes))
	}
	for _, id := range nodes {
		x, y := m.Coord(id)
		if (x+y)%2 != 1 {
			t.Fatalf("node %d at (%d,%d) breaks the checkerboard", id, x, y)
		}
	}

	m = noc.Mesh{Width: 32, Height: 32}
	nodes = bigrouter.Deployment(m, 64)
	if len(nodes) != 64 {
		t.Fatalf("strided deployment on 32x32 placed %d big routers, want 64", len(nodes))
	}
	seen := map[noc.NodeID]bool{}
	for _, id := range nodes {
		if id < 0 || int(id) >= m.Nodes() || seen[id] {
			t.Fatalf("deployment produced out-of-range or duplicate node %d", id)
		}
		seen[id] = true
	}
}

// TestQSLSleeperAcquiresOnce pins the QSL probe/wake race: a sleeper's
// post-enqueue probe swap and a release's wakeup can both be in flight at
// once, and the thread must acquire the lock once, not once for each. On
// 16×16 at seeds 15 and 21 the wakeup's resumption landed after a winning
// probe, and the runs completed 517 and 514 critical sections instead of
// 512. With short context-switch costs the resumption can fall due while
// the probe's swap is still in flight (the 8×8 cases).
func TestQSLSleeperAcquiresOnce(t *testing.T) {
	for _, c := range []struct {
		dim, cs           int
		mech              inpg.Mechanism
		seed              int64
		ctxSwitch, wakeup int
	}{
		{16, 2, inpg.INPGOCOR, 15, 0, 0},
		{16, 2, inpg.INPGOCOR, 21, 0, 0},
		{8, 1, inpg.OCOR, 4, 20, 10},
		{8, 2, inpg.INPGOCOR, 0, 20, 10},
	} {
		cfg := inpg.DefaultConfig()
		cfg.MeshWidth, cfg.MeshHeight = c.dim, c.dim
		cfg.Mechanism = c.mech
		cfg.Lock = inpg.LockQSL
		cfg.CSPerThread = c.cs
		cfg.CSCycles = 50
		cfg.CSJitter = 15
		cfg.ParallelCycles = 500
		cfg.ParallelJitter = 125
		cfg.Seed = c.seed
		cfg.CtxSwitchCycles, cfg.WakeupCycles = c.ctxSwitch, c.wakeup
		sys, err := inpg.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if want := c.dim * c.dim * c.cs; res.CSCompleted != want {
			t.Errorf("%+v: CSCompleted = %d, want %d", c, res.CSCompleted, want)
		}
		for _, th := range res.PerThread {
			if th.CSCompleted != c.cs {
				t.Errorf("%+v: thread %d completed %d critical sections, want %d", c, th.ID, th.CSCompleted, c.cs)
			}
		}
	}
}
