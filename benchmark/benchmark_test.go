package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// tiny returns a workload shrunk far enough for a test run well under a
// second.
func tiny(t *testing.T, name string) *workloadDef {
	t.Helper()
	def := findWorkload(name)
	if def == nil {
		t.Fatalf("no workload %q", name)
	}
	return def.scaled(0.02)
}

func tinyRun(t *testing.T, name string, seed uint64, trace bool) *result {
	t.Helper()
	res := run(runConfig{def: tiny(t, name), seed: seed, seconds: 0.05, trace: trace, dir: t.TempDir(), setups: 1})
	if res.failed != 0 || res.err != nil {
		t.Fatalf("%s: %d of %d operations failed: %v", name, res.failed, res.attempted, res.err)
	}
	return res
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {99, 10}, {90, 9}, {10, 1}, {1, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4})
	if !near(q1, 1.25) || !near(q2, 2.5) || !near(q3, 3.75) {
		t.Errorf("quartiles of 1..4 = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4}); !near(got, 1) {
		t.Errorf("spread of 1..4 = %v, want 1", got)
	}
}

// selfOf returns the self time of each named span.
func selfOf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += ns
	}
	return out
}

func TestSelfTimeNestedAdjacentOverlapping(t *testing.T) {
	// Nested: root 0..100, child 10..60, grandchild 20..30.
	nested := selfOf([]span{
		{ID: 1, Req: 1, Name: "client.Lookup", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "engine.Lookup", Start: 10, End: 60},
		{ID: 3, Parent: 2, Req: 1, Name: "store.ReadNode", Start: 20, End: 30},
	})
	if want := map[string]int64{"client.Lookup": 50, "engine.Lookup": 40, "store.ReadNode": 10}; !reflect.DeepEqual(nested, want) {
		t.Errorf("nested: %v, want %v", nested, want)
	}
	// Adjacent children share an end point and leave a gap before the root ends.
	adjacent := selfOf([]span{
		{ID: 1, Req: 1, Name: "bvtree.Lookup", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "store.ReadNode", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "store.WriteNode", Start: 40, End: 70},
	})
	if want := map[string]int64{"bvtree.Lookup": 40, "store.ReadNode": 30, "store.WriteNode": 30}; !reflect.DeepEqual(adjacent, want) {
		t.Errorf("adjacent: %v, want %v", adjacent, want)
	}
	// Scatter-gather: two shards' engine calls overlap from 30 to 50. The
	// root keeps only what no child covers (the union is 10..80); the
	// shared stretch is counted once, for the later-started call; a call
	// that outlives its root (a shard finishing after an early stop) is
	// clipped to it.
	overlap := selfOf([]span{
		{ID: 1, Req: 1, Name: "client.Range", Start: 0, End: 80},
		{ID: 2, Parent: 1, Req: 1, Name: "engine.RangeQuery", Start: 10, End: 50},
		{ID: 3, Parent: 1, Req: 1, Name: "engine.Count", Start: 30, End: 120},
		{ID: 4, Parent: 3, Req: 1, Name: "store.ReadNode", Start: 60, End: 65},
	})
	if want := map[string]int64{"client.Range": 10, "engine.RangeQuery": 20, "engine.Count": 45, "store.ReadNode": 5}; !reflect.DeepEqual(overlap, want) {
		t.Errorf("overlapping: %v, want %v", overlap, want)
	}
	var total int64
	for _, ns := range overlap {
		total += ns
	}
	if total != 80 {
		t.Errorf("overlapping self times sum to %d, want the root's 80", total)
	}
	// Spans outside any request are left out.
	if got := selfOf([]span{{ID: 9, Name: "store.Sync", Start: 0, End: 50}}); got["store.Sync"] != 0 {
		t.Errorf("span without request got self time %d", got["store.Sync"])
	}
}

func TestQuietRound(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(200 - i) // 200 down to 1
	}
	if lo, hi := quietLow(v), quietHigh(v); lo != 2 || hi != 198 {
		t.Errorf("quietLow, quietHigh of 1..200 = %v, %v, want 2, 198", lo, hi)
	}
	if lo, hi := quietLow(v[:3]), quietHigh(v[:3]); lo != 198 || hi != 200 {
		t.Errorf("of three values = %v, %v, want the least and the greatest", lo, hi)
	}
}

// The server mix has exact shares under every seed, so that the cost of
// a round does not follow the seed.
func TestServerMixHasExactShares(t *testing.T) {
	def := findWorkload("server-mixed").scaled(0.1)
	var orders [2][]uint8
	for k, seed := range []uint64{1, 2} {
		in, err := makeInputs(def, seed)
		if err != nil {
			t.Fatal(err)
		}
		var n [opBatch + 1]int
		for _, kind := range in.kind {
			n[kind]++
		}
		ops := def.roundOps
		if n[opLookup] != ops*80/100 || n[opRange] != ops*10/100 || n[opCount] != ops*5/100 || n[opInsert] != ops*5/100 || in.roundInserts != n[opInsert] {
			t.Errorf("seed %d: %d lookups, %d ranges, %d counts, %d inserts (roundInserts %d) of %d", seed, n[opLookup], n[opRange], n[opCount], n[opInsert], in.roundInserts, ops)
		}
		orders[k] = in.kind
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Error("seeds 1 and 2 place the operations in the same order")
	}
}

func TestSameSeedSameInputsAndCounts(t *testing.T) {
	a := tinyRun(t, "point-hot", 7, true)
	b := tinyRun(t, "point-hot", 7, true)
	c := tinyRun(t, "point-hot", 8, true)
	if a.hash != b.hash {
		t.Errorf("same seed, different inputs: %x and %x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("seeds 7 and 8 gave the same inputs %x", a.hash)
	}
	for _, name := range []string{"bvtree.nodes_per_op", "bvtree.height"} {
		if a.metrics[name] != b.metrics[name] {
			t.Errorf("same seed, %s = %v and %v", name, a.metrics[name], b.metrics[name])
		}
	}
	// The paper's exact-match cost: one node per level.
	if got, want := a.metrics["bvtree.nodes_per_op"], a.metrics["bvtree.height"]+1; got != want {
		t.Errorf("nodes_per_op = %v, want height+1 = %v", got, want)
	}
	if occ := a.metrics["bvtree.data_min_occupancy"]; occ < 1.0/3 {
		t.Errorf("data_min_occupancy = %v, below the paper's 1/3", occ)
	}
}

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	bm := readBenchmarkJSON(t)
	var listed []*workloadDef
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w)
		}
	}
	if len(bm.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code lists %d", len(bm.Workloads), len(listed))
	}
	for i, w := range listed {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(bm.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := bm.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
	if len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bm.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the code %+v", i, got, m)
		}
	}
}

var metricLine = regexp.MustCompile(`(?m)^metric (\S+) (\S+) (\S+) (\S+)$`)

// TestEveryNamedMetricPrintedOnce runs the command's own entry point, so
// it also covers the report and the JSON line.
func TestEveryNamedMetricPrintedOnce(t *testing.T) {
	bm := readBenchmarkJSON(t)
	for _, trace := range []bool{false, true} {
		want := map[string]string{}
		if trace {
			for _, m := range bm.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bm.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		var stdout, stderr bytes.Buffer
		o := options{defs: []*workloadDef{tiny(t, "server-mixed")}, seed: 3, seconds: 0.05, trace: trace, repeat: 1, dir: t.TempDir(), deadline: time.Minute, setups: 1}
		if code := execute(o, &stdout, &stderr); code != 0 {
			t.Fatalf("trace=%v: exit code %d\n%s%s", trace, code, stdout.String(), stderr.String())
		}
		seen := map[string]int{}
		for _, m := range metricLine.FindAllStringSubmatch(stdout.String(), -1) {
			seen[m[2]]++
			if unit, ok := want[m[2]]; !ok {
				t.Errorf("trace=%v: printed metric %s is not in BENCHMARK.json", trace, m[2])
			} else if unit != m[4] {
				t.Errorf("trace=%v: %s printed with unit %s, want %s", trace, m[2], m[4], unit)
			}
		}
		for name := range want {
			if seen[name] != 1 {
				t.Errorf("trace=%v: %s printed %d times, want once", trace, name, seen[name])
			}
		}
		// The last line is the contract's JSON object with the same metrics.
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace=%v: last line is not JSON: %v", trace, err)
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(want) {
			t.Errorf("trace=%v: last line %+v, want correct with %d metrics", trace, last, len(want))
		}
	}
}

func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	for _, c := range []struct {
		workload string
		corrupt  func(in *inputs)
	}{
		// A lookup is pointed at a stored point whose payload is another index.
		{"point-hot", func(in *inputs) { in.pts[in.arg[0]] = in.pts[(int(in.arg[0])+1)%len(in.pts)] }},
		// The oracle's answer for one window loses an item.
		{"range-large", func(in *inputs) { in.wins[1].want.n-- }},
	} {
		var stdout, stderr bytes.Buffer
		o := options{defs: []*workloadDef{tiny(t, c.workload)}, seed: 5, seconds: 0.05, repeat: 1, dir: t.TempDir(), deadline: time.Minute, setups: 1, corrupt: c.corrupt}
		if code := execute(o, &stdout, &stderr); code == 0 {
			t.Errorf("%s: exit code 0 with a corrupted expectation\n%s", c.workload, stdout.String())
		}
		m := regexp.MustCompile(`(?m)^ops \S+ attempted=\d+ failed=(\d+)$`).FindStringSubmatch(stdout.String())
		if m == nil || m[1] == "0" {
			t.Errorf("%s: no failed count printed:\n%s", c.workload, stdout.String())
		}
		if !strings.Contains(stdout.String(), `"correct":false`) {
			t.Errorf("%s: JSON line does not say correct:false:\n%s", c.workload, stdout.String())
		}
	}
}

func TestEveryWorkloadRunsCleanAndRemovesItsData(t *testing.T) {
	for _, w := range workloads {
		dir := t.TempDir()
		res := run(runConfig{def: w.scaled(0.02), seed: 11, seconds: 0.05, dir: dir, setups: 2})
		if res.failed != 0 || res.err != nil {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.failed, res.attempted, res.err)
		}
		for _, m := range endToEnd {
			if v := res.metrics[m.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.name, m.name, v)
			}
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%s: left %d entries in its data directory", w.name, len(left))
		}
	}
}

func TestLayerAnchors(t *testing.T) {
	cold := tinyRun(t, "point-cold", 2, true)
	if got, want := cold.metrics["bvtree.nodes_per_op"], cold.metrics["bvtree.height"]+1; got != want {
		t.Errorf("point-cold: nodes_per_op = %v, want height+1 = %v", got, want)
	}
	if cold.metrics["storage.slot_reads_per_op"] <= 0 || cold.metrics["vfs.read_us_per_op"] <= 0 {
		t.Errorf("point-cold read nothing from the store: %v slot reads/op, %v µs/op in vfs reads",
			cold.metrics["storage.slot_reads_per_op"], cold.metrics["vfs.read_us_per_op"])
	}
	if cold.metrics["wal.fsyncs_per_kop"] != 0 {
		t.Errorf("point-cold: wal.fsyncs_per_kop = %v on a read workload", cold.metrics["wal.fsyncs_per_kop"])
	}
	ingest := tinyRun(t, "ingest-durable", 2, true)
	if ingest.metrics["wal.fsyncs_per_kop"] <= 0 || ingest.metrics["wal.bytes_per_point"] <= 0 || ingest.metrics["wal.replay_points_per_s"] <= 0 {
		t.Errorf("ingest-durable: WAL metrics not positive: %v fsyncs/kop, %v B/point, %v replayed points/s",
			ingest.metrics["wal.fsyncs_per_kop"], ingest.metrics["wal.bytes_per_point"], ingest.metrics["wal.replay_points_per_s"])
	}
	srv := tinyRun(t, "server-mixed", 2, true)
	if srv.metrics["shard.self_us_per_op"] <= 0 || srv.metrics["shard.engine_calls_per_range"] < 1 || srv.metrics["shard.error_responses"] != 0 {
		t.Errorf("server-mixed: shard.self_us_per_op %v, engine_calls_per_range %v, error_responses %v",
			srv.metrics["shard.self_us_per_op"], srv.metrics["shard.engine_calls_per_range"], srv.metrics["shard.error_responses"])
	}
}

// TestTracedPathIsTheUntracedPath builds point-cold twice, bare and over
// the decorators, with caches that hold the whole working set (eviction
// order is random, first touches are not), and requires the same counts.
func TestTracedPathIsTheUntracedPath(t *testing.T) {
	def := tiny(t, "point-cold")
	def.cacheNodes, def.poolSlots = 1<<16, 1<<16
	in, err := makeInputs(def, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := func(rec *recorder) counts {
		s, err := setup(in, t.TempDir(), rec)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		if rec != nil {
			rec.on.Store(true)
		}
		if _, failed, err := s.round(nil); failed != 0 || err != nil {
			t.Fatalf("%d failed: %v", failed, err)
		}
		return s.counts().sub(s.built)
	}
	plain, rec := first(nil), newRecorder()
	traced := first(rec)
	if plain.nodes != traced.nodes || plain.store.NodeReads != traced.store.NodeReads || plain.store.SlotReads != traced.store.SlotReads {
		t.Errorf("plain: %d nodes, %d node reads, %d slot reads; traced: %d, %d, %d",
			plain.nodes, plain.store.NodeReads, plain.store.SlotReads, traced.nodes, traced.store.NodeReads, traced.store.SlotReads)
	}
	if plain.store.SlotReads == 0 {
		t.Error("the cold round read no slot: the comparison is empty")
	}
	names := summarize(rec.all()).Names
	for _, name := range []string{"bvtree.Lookup", "store.ReadNode", "vfs.db.ReadAt"} {
		if names[name] == nil {
			t.Errorf("no %s span recorded", name)
		}
	}
}

func TestServerLeavesNothingRunning(t *testing.T) {
	in, err := makeInputs(tiny(t, "server-mixed"), 6)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s, err := setup(in, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed, err := s.round(nil); failed != 0 || err != nil {
		t.Fatalf("%d failed: %v", failed, err)
	}
	addr := s.addr
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after close, %d before set-up", n, before)
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Errorf("%s still accepts connections after close", addr)
	}
}

func TestWatchdog(t *testing.T) {
	fired := make(chan struct{})
	watchdog(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
	quiet := make(chan struct{})
	stop := watchdog(50*time.Millisecond, func() { close(quiet) })
	stop()
	select {
	case <-quiet:
		t.Fatal("stopped watchdog fired")
	case <-time.After(150 * time.Millisecond):
	}
}

func TestNoiseReportJudgesAgainstTheBound(t *testing.T) {
	var out bytes.Buffer
	def := findWorkload("point-hot")
	noiseReport(&out, []*workloadDef{def}, map[string]map[string][]float64{"point-hot": {
		"ops_per_s":     {100, 101, 102, 103}, // spread 2.5%: fits
		"lat_p50_us":    {1, 2, 3, 4},         // spread 100%: does not
		"setup_s":       {1, 5, 9, 13},        // reported, not judged
		"unnamed":       {1, 2, 3, 4},         // not an end-to-end metric: not printed
		"cpu_us_per_op": {2},                  // one value: nothing to judge
	}})
	text := out.String()
	for _, want := range []string{"ops_per_s", "lat_p50_us", "WIDE", "setup_s"} {
		if !strings.Contains(text, want) {
			t.Errorf("noise report lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "unnamed") || strings.Contains(text, "cpu_us_per_op") {
		t.Errorf("noise report prints a metric it should skip:\n%s", text)
	}
	if strings.Count(text, "WIDE") != 1 {
		t.Errorf("want exactly one WIDE verdict:\n%s", text)
	}
}
