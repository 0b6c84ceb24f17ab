package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// quickSelection is the experiment quick-warm runs at quick scale. Its
// workloads are the 188 application traces of the full registry (56M of
// its 58M events, 739 MB of store entries), so the working set
// overflows the 256 MiB cache budget exactly as `-run all` does, while
// one pass costs a fifth of the full registry's 32 s.
const quickSelection = "figure2"

// minPasses is the fewest measured passes a CLI workload makes, however
// short -seconds is, so every run reports a median of at least three.
const minPasses = 3

// cliSamples collects the per-pass measurements of a CLI workload.
type cliSamples struct {
	setup []float64 // s
	wall  []float64 // s, one per successful pass
	rss   []float64 // MiB
}

func (s *cliSamples) add(p procRun) {
	s.wall = append(s.wall, p.wall.Seconds())
	s.rss = append(s.rss, p.maxRSS)
}

// report sets the end-to-end metrics of a CLI workload. A request here
// is one memosim invocation (a full pass), so the three request metrics
// restate wall_s: req_p50_ms is the median pass, req_per_s its inverse,
// and req_p90_ms falls back to the median below twenty passes.
func (s *cliSamples) report(res *result) {
	res.set("setup_s", median(s.setup), "s")
	res.set("wall_s", median(s.wall), "s")
	res.set("peak_rss_mib", median(s.rss), "MiB")
	res.set("req_p50_ms", 1000*median(s.wall), "ms")
	res.set("req_p90_ms", 1000*tailQuantile(s.wall), "ms")
	res.set("req_per_s", 1/median(s.wall), "1/s")
}

// passes runs pass(i) until the measured phase has lasted -seconds and
// at least minPasses passes were made.
func (b *bench) passes(pass func(i int)) {
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start).Seconds() < b.seconds; i++ {
		pass(i)
	}
}

// goldens reads the tiny-scale text goldens: experiment names in
// registry (sorted) order and each one's rendered text.
func goldens(root string) ([]string, map[string][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "golden", "*.golden"))
	if err != nil || len(paths) == 0 {
		return nil, nil, fmt.Errorf("no goldens under testdata/golden (%v)", err)
	}
	sort.Strings(paths)
	names := make([]string, len(paths))
	want := make(map[string][]byte, len(paths))
	for i, p := range paths {
		names[i] = strings.TrimSuffix(filepath.Base(p), ".golden")
		if want[names[i]], err = os.ReadFile(p); err != nil {
			return nil, nil, err
		}
	}
	return names, want, nil
}

// checkTinyText checks a `memosim -scale tiny` text run against the
// goldens. memosim prints each result as its rendered text, a blank
// line, "(name)" and a blank line, then a footer of suite:/engine:
// timing lines. Each experiment section is one checked output; anything
// else in the output fails one more.
func checkTinyText(res *result, out []byte, names []string, golden map[string][]byte) {
	rest := out
	for _, name := range names {
		marker := []byte("\n(" + name + ")\n\n")
		want := append(append([]byte(nil), golden[name]...), marker...)
		if bytes.HasPrefix(rest, want) {
			res.check(true)
			rest = rest[len(want):]
			continue
		}
		res.check(false)
		fmt.Fprintf(os.Stderr, "perfbench: tiny %s differs from testdata/golden/%s.golden\n", name, name)
		if i := bytes.Index(rest, marker); i >= 0 {
			rest = rest[i+len(marker):]
		}
	}
	for _, line := range strings.SplitAfter(string(rest), "\n") {
		if line != "" && !strings.HasPrefix(line, "suite: ") && !strings.HasPrefix(line, "engine: ") {
			res.check(false)
			fmt.Fprintf(os.Stderr, "perfbench: unexpected tiny output line %q\n", line)
		}
	}
}

// setupSelection is the registry's static table: planning and
// rendering it demands no workload, so a run of it is all of a cold
// invocation's work except capture and replay.
const setupSelection = "table1"

// setupPerPass is how many cold set-up runs tiny-cold times before each
// pass. A set-up run takes a few milliseconds, so its wall time follows
// the host's scheduling of the moment; samples spread over the whole
// run, rather than taken in one burst at its start, give a median that
// moves less from run to run.
const setupPerPass = 15

// tinySetup times the set-up every cold tiny pass performs before its
// first capture — process start, package init, the registry, engine,
// store and spill-directory construction, planning and rendering — as
// cold `memosim -scale tiny -run table1` runs, each with an empty store
// and spill directory, checked against the table1 golden. Process start
// dominates: the workload has no other set-up.
func (b *bench) tinySetup(res *result, s *cliSamples, golden map[string][]byte) {
	for i := 0; i < setupPerPass; i++ {
		store, spill := b.path("store-setup"), b.path("spill-setup")
		p := b.memosim("-scale", "tiny", "-run", setupSelection, "-tracedir", spill, "-store", store)
		os.RemoveAll(store)
		os.RemoveAll(spill)
		if p.exitErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", p.exitErr)
			res.check(false)
			continue
		}
		s.setup = append(s.setup, p.wall.Seconds())
		checkTinyText(res, p.stdout, []string{setupSelection}, golden)
	}
}

// tinyPass runs one cold tiny pass: fresh engine (a new process), empty
// spill directory, empty store.
func (b *bench) tinyPass(i int) procRun {
	store, spill := b.path(fmt.Sprintf("store-%d", i)), b.path(fmt.Sprintf("spill-%d", i))
	defer os.RemoveAll(store)
	defer os.RemoveAll(spill)
	return b.memosim("-scale", "tiny", "-run", "all", "-tracedir", spill, "-store", store)
}

// runTinyCold measures cold `memosim -scale tiny -run all` passes, each
// after a round of set-up runs. The passes print text, not -json, so
// every pass is checked byte for byte against the text goldens (JSON
// drops the cells' print precision and could not be compared with them).
func runTinyCold(b *bench) (*result, error) {
	names, golden, err := goldens(b.root)
	if err != nil {
		return nil, err
	}
	res := newResult()
	var s cliSamples
	b.passes(func(i int) {
		b.tinySetup(res, &s, golden)
		p := b.tinyPass(i)
		if p.exitErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", p.exitErr)
			for range names {
				res.check(false)
			}
			return
		}
		checkTinyText(res, p.stdout, names, golden)
		s.add(p)
	})
	s.report(res)
	return res, nil
}

// quickFill is quick-warm's set-up: one cold pass that fills the store.
// Its JSON output is the reference every warm pass must reproduce.
func (b *bench) quickFill(res *result, s *cliSamples) (store string, ref []byte, err error) {
	store = b.path("store")
	spill := b.path("spill-setup")
	defer os.RemoveAll(spill)
	p := b.memosim("-run", quickSelection, "-json", "-tracedir", spill, "-store", store)
	if p.exitErr != nil {
		return "", nil, p.exitErr
	}
	s.setup = append(s.setup, p.wall.Seconds())
	docs, err := splitJSONArray(p.stdout)
	res.check(err == nil && len(docs) == 1 && docs[0].name == quickSelection)
	return store, p.stdout, nil
}

// quickPass runs one warm quick pass against the filled store, with a
// fresh engine and an empty spill directory.
func (b *bench) quickPass(i int, store string) procRun {
	spill := b.path(fmt.Sprintf("spill-%d", i))
	defer os.RemoveAll(spill)
	return b.memosim("-run", quickSelection, "-json", "-tracedir", spill, "-store", store)
}

// runQuickWarm measures warm quick-scale passes against a store the
// set-up pass filled; each must print the set-up pass's JSON bytes.
func runQuickWarm(b *bench) (*result, error) {
	res := newResult()
	var s cliSamples
	store, ref, err := b.quickFill(res, &s)
	if err != nil {
		return nil, err
	}
	b.passes(func(i int) {
		p := b.quickPass(i, store)
		if p.exitErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", p.exitErr)
			res.check(false)
			return
		}
		res.check(bytes.Equal(p.stdout, ref))
		s.add(p)
	})
	s.report(res)
	return res, nil
}
