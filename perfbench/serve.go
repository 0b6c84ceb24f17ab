package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serveSelections are serve-tiny's request selections in popularity
// order; rank r has Zipf weight 1/r. The mix is synthetic: no /v1/run
// traffic has been recorded. The only usage the repository shows leads
// the ranking — table5, then table1,figure4 (the README's examples, the
// CI service soak) and figure4 — and every other experiment follows
// once, in registry order.
var serveSelections = []string{
	"table5",
	"table1,figure4",
	"figure4",
	"figure2",
	"figure3",
	"recip-comparison",
	"reuse-comparison",
	"sqrt-extension",
	"table1",
	"table10",
	"table11",
	"table12",
	"table13",
	"table6",
	"table7",
	"table8",
	"table9",
}

const (
	// blockSize is the number of requests whose selection mix is fixed:
	// every block holds each selection its Zipf share of blockSize times
	// (largest remainder), so runs differ only in request order and the
	// percentiles do not swing with a seed's sampling luck. A multiple of
	// serveClients.
	blockSize = 40
	// minRequests is the fewest requests a serve run makes: p90 needs
	// ten samples beyond it.
	minRequests = 100
	// serveClients is the client count, one tenant each.
	serveClients = 2
)

// blockCounts is the per-selection request count of one block.
func blockCounts() []int {
	n := len(serveSelections)
	var total float64
	for r := 1; r <= n; r++ {
		total += 1 / float64(r)
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	left := blockSize
	for i := range counts {
		exact := blockSize / float64(i+1) / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// splitmix64 is the script's PRNG: tiny, and fixed by this file rather
// than by a library's version.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pairSeed fixes which requests share a round. It is a constant rather
// than the run's seed: the pairing decides how much work overlaps, and
// with pairs drawn per seed the throughput of two free-running clients
// swung by 15% from seed to seed on an otherwise steady host.
const pairSeed = 0x5eed

// script is an endless request sequence in rounds of serveClients
// requests. Every block holds the same rounds — the block's Zipf mix
// grouped by the fixed pairing — in an order, and with members assigned
// to tenants, shuffled by (seed, block).
type script struct {
	seed   uint64
	rounds [][]string // one block's rounds
	blocks map[int][]string
}

func newScript(seed uint64) *script {
	var mix []string
	for sel, c := range blockCounts() {
		for j := 0; j < c; j++ {
			mix = append(mix, serveSelections[sel])
		}
	}
	rng := splitmix64(pairSeed)
	shuffle(mix, &rng)
	var rounds [][]string
	for j := 0; j < len(mix); j += serveClients {
		rounds = append(rounds, mix[j:j+serveClients])
	}
	return &script{seed: seed, rounds: rounds, blocks: make(map[int][]string)}
}

func shuffle[T any](xs []T, rng *splitmix64) {
	for j := len(xs) - 1; j > 0; j-- {
		r := int(rng.next() % uint64(j+1))
		xs[j], xs[r] = xs[r], xs[j]
	}
}

// at returns the selection of request i; client i%serveClients sends it.
// Not safe for concurrent use.
func (s *script) at(i int) string {
	k := i / blockSize
	blk, ok := s.blocks[k]
	if !ok {
		rng := splitmix64(s.seed*0x100000001b3 + uint64(k))
		order := make([][]string, len(s.rounds))
		for j, r := range s.rounds {
			order[j] = append([]string(nil), r...)
			shuffle(order[j], &rng)
		}
		shuffle(order, &rng)
		for _, r := range order {
			blk = append(blk, r...)
		}
		s.blocks[k] = blk
	}
	return blk[i%blockSize]
}

// reply is one completed request.
type reply struct {
	i          int // script index
	start, end time.Time
	ok         bool // 200 and byte-identical to the reference
}

// lockstep runs the script in rounds: the serveClients clients, one
// tenant each, send one request each at once, and the next round starts
// when every reply is in, so each client is a closed loop. It stops at
// the first block boundary after both seconds and atLeast requests are
// reached, so a run serves whole blocks. do serves script request i for
// a client and reports whether it succeeded. lockstep returns the
// replies and the loop's makespan.
func lockstep(sc *script, seconds float64, atLeast int, do func(client, i int, sel string) bool) ([]reply, time.Duration) {
	start := time.Now()
	var replies []reply
	for i := 0; i%blockSize != 0 || i < atLeast || time.Since(start).Seconds() < seconds; i += serveClients {
		round := make([]reply, serveClients)
		var wg sync.WaitGroup
		for c := range round {
			sel := sc.at(i + c)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t := time.Now()
				ok := do(c, i+c, sel)
				round[c] = reply{i: i + c, start: t, end: time.Now(), ok: ok}
			}(c)
		}
		wg.Wait()
		replies = append(replies, round...)
	}
	return replies, time.Since(start)
}

// reportReplies sets the request metrics and counts every reply. The
// workload's wall_s is the median time to serve one block: from the
// first request of the block being sent to the last one answered.
func reportReplies(res *result, replies []reply, makespan time.Duration) {
	lat := make([]float64, len(replies))
	first := make(map[int]time.Time)
	last := make(map[int]time.Time)
	for i, r := range replies {
		lat[i] = float64(r.end.Sub(r.start)) / float64(time.Millisecond)
		res.check(r.ok)
		k := r.i / blockSize
		if t, ok := first[k]; !ok || r.start.Before(t) {
			first[k] = r.start
		}
		if r.end.After(last[k]) {
			last[k] = r.end
		}
	}
	var blocks []float64
	for k, t := range first {
		blocks = append(blocks, last[k].Sub(t).Seconds())
	}
	res.set("wall_s", median(blocks), "s")
	res.set("req_p50_ms", median(lat), "ms")
	p90 := tailQuantile(lat)
	res.set("req_p90_ms", p90, "ms")
	res.set("req_per_s", float64(len(replies))/makespan.Seconds(), "1/s")
}

// doc is one experiment's element of a -json result array.
type doc struct {
	name string
	raw  []byte
}

// splitJSONArray splits memosim -json output (report.JSONArray: "[\n",
// the indented documents joined by ",\n", "\n]\n") into its documents,
// keeping each one's bytes exactly.
func splitJSONArray(body []byte) ([]doc, error) {
	if !bytes.HasPrefix(body, []byte("[\n")) || !bytes.HasSuffix(body, []byte("\n]\n")) {
		return nil, errors.New("not a memosim JSON array")
	}
	var docs []doc
	var cur []byte
	for _, line := range strings.SplitAfter(string(body[2:len(body)-2]), "\n") {
		cur = append(cur, line...)
		if end := strings.TrimSuffix(line, "\n"); end == "}" || end == "}," {
			raw := bytes.TrimSuffix(bytes.TrimSuffix(cur, []byte("\n")), []byte(","))
			var head struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(raw, &head); err != nil {
				return nil, fmt.Errorf("result %d: %w", len(docs), err)
			}
			docs = append(docs, doc{name: head.Name, raw: raw})
			cur = nil
		}
	}
	if len(cur) != 0 || len(docs) == 0 {
		return nil, errors.New("unterminated result in memosim JSON array")
	}
	return docs, nil
}

// spliceJSONArray is report.JSONArray over already rendered documents.
func spliceJSONArray(docs [][]byte) []byte {
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, d := range docs {
		b.Write(d)
		if i != len(docs)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// references derives the expected -json bytes of every selection in the
// script from one offline `-run all -json` output.
func references(all []byte) (map[string][]byte, error) {
	docs, err := splitJSONArray(all)
	if err != nil {
		return nil, err
	}
	byName := make(map[string][]byte, len(docs))
	for _, d := range docs {
		byName[d.name] = d.raw
	}
	refs := make(map[string][]byte, len(serveSelections))
	for _, sel := range serveSelections {
		var parts [][]byte
		for _, name := range strings.Split(sel, ",") {
			raw, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("offline run has no result %q", name)
			}
			parts = append(parts, raw)
		}
		refs[sel] = spliceJSONArray(parts)
	}
	return refs, nil
}

// daemon is a running `memosim -serve`.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *lineWatch
	exited chan error // receives cmd.Wait's result
}

// lineWatch collects a process's stderr and reports the daemon's
// announced listen address.
type lineWatch struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var servingRE = regexp.MustCompile(`serving on http://(\S+)`)

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if m := servingRE.FindSubmatch(w.buf.Bytes()); m != nil && !w.sent {
		w.sent = true
		w.addr <- string(m[1])
	}
	return len(p), nil
}

func (w *lineWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startDaemon launches memosim -serve on an ephemeral loopback port and
// waits for its address.
func (b *bench) startDaemon(spill string) (*daemon, error) {
	lw := &lineWatch{addr: make(chan string, 1)}
	cmd := exec.Command(b.memosimBin, "-serve", "127.0.0.1:0", "-tracedir", spill)
	cmd.Dir = b.root
	cmd.Stderr = lw
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case addr := <-lw.addr:
		return &daemon{cmd: cmd, addr: addr, stderr: lw, exited: exited}, nil
	case err := <-exited:
		return nil, fmt.Errorf("memosim -serve exited before serving: %v\n%s", err, lw.String())
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-exited
		return nil, fmt.Errorf("memosim -serve did not announce an address\n%s", lw.String())
	}
}

// stop sends SIGTERM, waits for the graceful drain (killing the daemon
// if it overruns), and returns its peak RSS in MiB.
func (d *daemon) stop() (float64, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("memosim -serve did not drain within 30s: %v", <-d.exited)
	}
	var rss float64
	if d.cmd.ProcessState != nil {
		_, rss = usage(d.cmd.ProcessState)
	}
	if err != nil {
		return rss, fmt.Errorf("memosim -serve: %w\n%s", err, d.stderr.String())
	}
	return rss, nil
}

// get runs one /v1/run request and returns its status and body.
func (d *daemon) get(ctx context.Context, client *http.Client, sel, tenant string) (int, []byte, error) {
	q := url.Values{"scale": {"tiny"}, "tenant": {tenant}}
	if sel != "" {
		q.Set("run", sel)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.addr+"/v1/run?"+q.Encode(), nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runServeTiny measures the daemon under two tenants in lockstep rounds.
//
// Set-up: an offline `memosim -scale tiny -run all -json` gives the
// reference bytes of every selection; the daemon starts and one tiny
// `all` request warms it (every workload captured, in memory), which
// must also match the offline bytes. Then the clients run the seeded
// script; every 200 body must equal its selection's offline bytes.
func runServeTiny(b *bench) (*result, error) {
	res := newResult()
	setupStart := time.Now()
	offline := b.memosim("-scale", "tiny", "-run", "all", "-json", "-tracedir", b.path("spill-offline"))
	os.RemoveAll(b.path("spill-offline"))
	if offline.exitErr != nil {
		return nil, offline.exitErr
	}
	refs, err := references(offline.stdout)
	if err != nil {
		return nil, err
	}
	d, err := b.startDaemon(b.path("spill-serve"))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_, _ = d.stop()
		}
	}()
	ctx := context.Background()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	code, body, err := d.get(ctx, client, "", "t0")
	res.check(err == nil && code == http.StatusOK && bytes.Equal(body, offline.stdout))
	res.set("setup_s", time.Since(setupStart).Seconds(), "s")

	replies, makespan := lockstep(newScript(b.seed), b.seconds, minRequests, func(c, _ int, sel string) bool {
		code, body, err := d.get(ctx, client, sel, fmt.Sprintf("t%d", c))
		if err != nil || code != http.StatusOK || !bytes.Equal(body, refs[sel]) {
			fmt.Fprintf(os.Stderr, "perfbench: request %q: status %d, err %v\n", sel, code, err)
			return false
		}
		return true
	})
	reportReplies(res, replies, makespan)

	stopped = true
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mib", rss, "MiB")
	return res, nil
}
