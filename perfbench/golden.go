package main

import (
	"bufio"
	"embed"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"inpg"
)

// fingerprint is the exactness witness of one simulated cell: the result
// fields every optimisation must leave bit-identical.
type fingerprint struct {
	Runtime        uint64
	CSCompleted    uint64
	FlitsSwitched  uint64
	RTTSamples     uint64
	EarlyInvs      uint64
	Stopped        uint64
	NetLatencyBits uint64 // math.Float64bits(Results.NetMeanLatency)
}

func fingerprintOf(r *inpg.Results) fingerprint {
	return fingerprint{
		Runtime:        r.Runtime,
		CSCompleted:    uint64(r.CSCompleted),
		FlitsSwitched:  r.FlitsSwitched,
		RTTSamples:     r.RTTSamples,
		EarlyInvs:      r.EarlyInvs,
		Stopped:        r.Stopped,
		NetLatencyBits: math.Float64bits(r.NetMeanLatency),
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%d %d %d %d %d %d %016x", f.Runtime, f.CSCompleted,
		f.FlitsSwitched, f.RTTSamples, f.EarlyInvs, f.Stopped, f.NetLatencyBits)
}

// goldenFiles holds the checked-in golden values: cells.txt with one
// fingerprint per cell, and sweep-seed<N>.txt with the rendered
// Fig. 11/12 bytes of the sweep workload at that seed.
//
//go:embed golden
var goldenFiles embed.FS

type goldenKey struct {
	workload string
	seed     int64
}

// goldenTable maps (workload, seed) to per-cell fingerprints and, for the
// sweep, the expected figure bytes. Seeds outside the table run
// unchecked against golden values (the determinism and invariant checks
// still apply).
type goldenTable struct {
	cells map[goldenKey][]fingerprint
	figs  map[goldenKey]string
}

func newGoldenTable() *goldenTable {
	return &goldenTable{cells: make(map[goldenKey][]fingerprint), figs: make(map[goldenKey]string)}
}

// tinyName is the golden-table workload name of a workload's tiny cells.
// The checked-in table has no tiny entries; the harness tests add some.
func tinyName(workload string) string { return workload + "/tiny" }

// loadGolden parses the embedded golden files.
func loadGolden() (*goldenTable, error) {
	g := newGoldenTable()
	f, err := goldenFiles.Open("golden/cells.txt")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := g.readCells(f); err != nil {
		return nil, fmt.Errorf("golden/cells.txt: %w", err)
	}
	figs, err := fs.Glob(goldenFiles, "golden/sweep-seed*.txt")
	if err != nil {
		return nil, err
	}
	for _, name := range figs {
		var seed int64
		if _, err := fmt.Sscanf(name, "golden/sweep-seed%d.txt", &seed); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		data, err := goldenFiles.ReadFile(name)
		if err != nil {
			return nil, err
		}
		g.figs[goldenKey{"sweep", seed}] = string(data)
	}
	return g, nil
}

// readCells parses lines of "workload seed index <fingerprint fields>".
func (g *goldenTable) readCells(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var (
			k   goldenKey
			idx int
			fp  fingerprint
			lat string
		)
		_, err := fmt.Sscanf(text, "%s %d %d %d %d %d %d %d %d %s", &k.workload, &k.seed, &idx,
			&fp.Runtime, &fp.CSCompleted, &fp.FlitsSwitched, &fp.RTTSamples, &fp.EarlyInvs, &fp.Stopped, &lat)
		if err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		if fp.NetLatencyBits, err = strconv.ParseUint(lat, 16, 64); err != nil {
			return fmt.Errorf("line %d: latency bits: %w", line, err)
		}
		if idx != len(g.cells[k]) {
			return fmt.Errorf("line %d: cell %d out of order", line, idx)
		}
		g.cells[k] = append(g.cells[k], fp)
	}
	return sc.Err()
}

// writeCells emits the table's lines for one (workload, seed).
func writeCells(w io.Writer, workload string, seed int64, fps []fingerprint) {
	for i, fp := range fps {
		fmt.Fprintf(w, "%s %d %d %s\n", workload, seed, i, fp)
	}
}

// goldenMain regenerates the golden values: one pass of every workload
// at each seed given as an argument. Fingerprints go to stdout in the
// cells.txt format; the sweep's rendered figures go to files in -dir.
//
//	perfbench golden -dir golden 1 2 > golden/cells.txt
func goldenMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench golden", flag.ContinueOnError)
	fl.SetOutput(stderr)
	dir := fl.String("dir", "golden", "directory for the sweep figure files")
	work := fl.String("work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory for manifests")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var seeds []int64
	for _, a := range fl.Args() {
		s, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench golden: seed:", err)
			return 2
		}
		seeds = append(seeds, s)
	}
	fmt.Fprintln(stdout, "# perfbench golden fingerprints: workload seed cell runtime cs_completed")
	fmt.Fprintln(stdout, "# flits_switched rtt_samples early_invs stopped net_mean_latency_bits(hex)")
	for _, w := range workloads {
		for _, seed := range seeds {
			cfgs := w.cells(seed, false)
			var p passResult
			if w.sweep {
				var err error
				p, err = sweepPass(seed, false, cfgs, filepath.Join(*work, "manifests-golden"), nil)
				if err != nil {
					fmt.Fprintln(stderr, "perfbench golden:", err)
					return 1
				}
				if err := os.WriteFile(filepath.Join(*dir, fmt.Sprintf("sweep-seed%d.txt", seed)), []byte(p.fig), 0o644); err != nil {
					fmt.Fprintln(stderr, "perfbench golden:", err)
					return 1
				}
			} else {
				p = simPass(cfgs, nil)
			}
			fps := make([]fingerprint, len(p.cells))
			for i, c := range p.cells {
				fps[i] = c.fp
			}
			chk := &checker{}
			checkPass(chk, p, cfgs, fps, nil, "", false)
			if chk.failed > 0 {
				fmt.Fprintf(stderr, "perfbench golden: %s seed %d: %v\n", w.name, seed, chk.issues)
				return 1
			}
			writeCells(stdout, w.name, seed, fps)
			fmt.Fprintf(stderr, "perfbench golden: %s seed %d: %d cells\n", w.name, seed, len(fps))
		}
	}
	return 0
}
