// Command perfbench is the end-to-end dlserve benchmark. It launches
// two `dlserve node` processes with op logs and one `dlserve
// coordinator` on loopback, loads a seeded corpus, checks the answers
// against an in-process reference, drives one workload over HTTP and
// prints every metric by name and unit. The last line of its output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// It talks to the program only through the dlserve CLI and its HTTP
// API and imports none of its internal packages; the reference answers
// and the per-layer replays come from the perfreplay binary.
//
//	perfbench -workload search|query|ingest -seed N -seconds S -trace 0|1 \
//	    -bin DIR -work DIR
//	perfbench -smoke -bin DIR -work DIR    (self-test: tiny corpus, every workload once)
//
// With -trace 0 it reports the end-to-end metrics of an untraced
// cluster. With -trace 1 it runs the workload twice, untraced and then
// with -slow-query-ms -1 on every process, and reports the per-layer
// metrics: coordinator and node spans joined by request ID, /metrics
// deltas over the timed phase, and perfreplay's layer replays.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"dlsearch/perfbench/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding dlserve and perfreplay
	work     string // scratch directory for op logs and process logs
	smoke    bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "search, query or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the dlserve and perfreplay binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory for op logs, process logs and spans")
	smoke := flag.Bool("smoke", false, "self-test: run every workload once on a tiny corpus and check the metric names")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark spec whose metric names the self-test checks")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if *smoke {
		os.Exit(runSmoke(cfg, *spec))
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload run and returns its result line. Any
// failed correctness gate is an error: no numbers are reported.
func run(cfg config) (*result, error) {
	for _, b := range []string{"dlserve", "perfreplay"} {
		if _, err := os.Stat(filepath.Join(cfg.bin, b)); err != nil {
			return nil, fmt.Errorf("missing binary: %w", err)
		}
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	work, err := filepath.Abs(filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{cfg: cfg, w: w, dir: work, t0: time.Now()}
	printHost(work)
	w.printProperties()
	var res *result
	if cfg.trace {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if werr := b.writeSpans(); werr != nil && err == nil {
		err = werr
	}
	return res, err
}

// reference runs perfreplay for the workload and seed.
func reference(cfg config, layers bool, queries int) (*workload.Reference, error) {
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-queries", fmt.Sprint(queries)}
	if layers {
		args = append(args, "-layers")
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "perfreplay"), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("perfreplay: %w", err)
	}
	var ro workload.Reference
	if err := json.Unmarshal(out, &ro); err != nil {
		return nil, fmt.Errorf("perfreplay output: %w", err)
	}
	return &ro, nil
}

// benchSpan is one bench-side span, kept in memory and written out
// when the run ends.
type benchSpan struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// bench is the state of one run.
type bench struct {
	cfg     config
	w       *wl
	dir     string
	t0      time.Time
	spans   []benchSpan
	samples []sample // every timed request, for the span file
}

func (b *bench) span(name string, start time.Time) time.Duration {
	d := time.Since(start)
	b.spans = append(b.spans, benchSpan{Name: name, StartMS: ms(start.Sub(b.t0)), DurMS: ms(d)})
	return d
}

// writeSpans writes the bench-side spans and per-request samples.
func (b *bench) writeSpans() error {
	dir := filepath.Join(b.cfg.work, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type req struct {
		ID        string  `json:"id"`
		StartMS   float64 `json:"start_ms"`
		LatencyMS float64 `json:"latency_ms"`
		Failed    bool    `json:"failed,omitempty"`
	}
	out := struct {
		Spans    []benchSpan `json:"spans"`
		Requests []req       `json:"requests"`
	}{Spans: b.spans}
	for _, s := range b.samples {
		out.Requests = append(out.Requests, req{s.id, ms(s.start.Sub(b.t0)), ms(s.latency), s.failed})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", b.cfg.workload, b.cfg.seed, b.cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// setup boots a cluster, loads the corpus and warms it up; the
// returned duration is the setup time that setup_s reports.
func (b *bench) setup(name string, traced bool) (*cluster, time.Duration, loadStats, error) {
	start := time.Now()
	c, err := startCluster(filepath.Join(b.cfg.bin, "dlserve"), filepath.Join(b.dir, name), clusterSpec{coordArgs: b.w.coordArgs, traced: traced})
	if err != nil {
		return nil, 0, loadStats{}, err
	}
	b.span(name+".boot", start)
	t := time.Now()
	ls, err := b.w.load(c)
	if err != nil {
		c.stop()
		return nil, 0, ls, fmt.Errorf("load: %w", err)
	}
	b.span(name+".load", t)
	t = time.Now()
	if err := b.w.warm(c); err != nil {
		c.stop()
		return nil, 0, ls, fmt.Errorf("warm-up: %w", err)
	}
	b.span(name+".warm", t)
	d := b.span(name, start)
	t = time.Now()
	if err := b.w.gate(c, -1); err != nil {
		c.stop()
		return nil, 0, ls, fmt.Errorf("correctness gate after load: %w", err)
	}
	b.span(name+".gate", t)
	return c, d, ls, nil
}

// untraced is the -trace 0 run: several setups (median setup_s), one
// timed phase, peak RSS, then several kill -9 + restart cycles
// (median recovery_s), each followed by the correctness gate.
func (b *bench) untraced() (*result, error) {
	var setups []float64
	var loadRates []float64
	var c *cluster
	for i := 0; i < b.w.setups; i++ {
		var d time.Duration
		var ls loadStats
		var err error
		if c, d, ls, err = b.setup(fmt.Sprintf("setup%d", i), false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if ls.docs > 0 {
			loadRates = append(loadRates, float64(ls.docs)/ls.wall.Seconds())
		}
		if i < b.w.setups-1 {
			c.stop()
		}
	}
	defer c.stop()
	t := time.Now()
	ph, err := b.w.timed(c, b.cfg.seconds)
	if err != nil {
		return nil, err
	}
	b.span("timed", t)
	b.samples = ph.samples
	rss, err := c.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	var recov []float64
	for i := 0; i < b.w.recoveries; i++ {
		d, err := b.recover(c, i)
		if err != nil {
			return nil, err
		}
		recov = append(recov, d.Seconds())
	}
	if ph.docs > 0 {
		loadRates = []float64{float64(ph.docs) / ph.wall.Seconds()}
	}
	lat := latenciesMS(ph.samples)
	attempted, failed := len(ph.samples)+ph.docs, ph.failed()
	qps := float64(len(ph.samples)-failed) / ph.elapsed.Seconds()
	rep := newReport()
	rep.add("setup_s", median(setups), "s")
	rep.add("qps", qps, "1/s")
	rep.add("p50_ms", percentile(lat, 0.5), "ms")
	rep.add("ingest_docs_per_s", median(loadRates), "1/s")
	rep.add("recovery_s", median(recov), "s")
	rep.add("peak_rss_mb", rss, "MiB")
	b.w.printNamed(ph, qps, lat, median(loadRates), median(recov), rss, median(setups), attempted, failed)
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: rep.metrics}, nil
}

// recover kills node 0 with SIGKILL, restarts it on the same op log
// and times until it is healthy and the cluster answers a sampled
// request exactly as the reference; the full gate follows, untimed.
func (b *bench) recover(c *cluster, i int) (time.Duration, error) {
	start := time.Now()
	if err := c.restartNode(0); err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		err := b.w.gate(c, 1)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("not recovered after restart: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	d := b.span(fmt.Sprintf("recovery%d", i), start)
	if err := b.w.gate(c, -1); err != nil {
		return 0, fmt.Errorf("correctness gate after kill -9 and restart: %w", err)
	}
	return d, nil
}

// traced is the -trace 1 run: an untraced pass for the tracing
// overhead, then a traced pass whose spans and /metrics deltas give
// the per-layer metrics, plus perfreplay's layer replays.
func (b *bench) traced() (*result, error) {
	c, _, _, err := b.setup("untraced", false)
	if err != nil {
		return nil, err
	}
	plain, err := b.w.timed(c, b.cfg.seconds)
	c.stop()
	if err != nil {
		return nil, err
	}
	c, _, _, err = b.setup("traced", true)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	before, err := scrapeCluster(c)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ph, err := b.w.timed(c, b.cfg.seconds)
	if err != nil {
		return nil, err
	}
	b.span("timed", t)
	b.samples = ph.samples
	after, err := scrapeCluster(c)
	if err != nil {
		return nil, err
	}
	if _, err := b.recover(c, 0); err != nil {
		return nil, err
	}
	recs := map[string][]spanRecord{}
	for _, p := range c.procs() {
		if err := readSpans(p.log, recs); err != nil {
			return nil, err
		}
	}
	replay, err := reference(b.cfg, true, len(ph.samples))
	if err != nil {
		return nil, err
	}
	layers := b.layers(c, ph, plain, before, after, recs, replay)
	attempted := len(plain.samples) + len(ph.samples) + ph.docs + plain.docs
	failed := plain.failed() + ph.failed()
	return &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: layers.metrics}, nil
}

// layers computes and prints every per-layer metric of a traced pass.
// A layer the workload does not exercise reports 0.
func (b *bench) layers(c *cluster, ph, plain phase, before, after scrape, recs map[string][]spanRecord, replay *workload.Reference) *report {
	rep := newReport()
	lt := attribute(ph.samples, recs, b.w.name == "query")
	med := func(k string) float64 { return median(lt[k]) }
	requests := float64(len(ph.samples))
	co0, co1 := before.coord, after.coord
	n0, n1 := before.nodes, after.nodes
	// Ingest-side series are taken over the process lifetime: the
	// search and query workloads ingest during setup, the ingest
	// workload during the timed phase, and setup ingests nothing there.
	zero := map[string]float64{}
	docs := float64(b.w.docsIngested(ph))

	rep.add("server.search_parse_ms", med("server.search_parse_ms"), "ms")
	rep.add("server.search_self_ms", med("server.search_self_ms"), "ms")
	rep.add("server.query_parse_ms", med("server.query_parse_ms"), "ms")
	rep.add("server.query_execute_ms", med("server.query_execute_ms"), "ms")
	rep.add("dist.stats_ms", med("dist.stats_ms"), "ms")
	rep.add("dist.fanout_ms", med("dist.fanout_ms"), "ms")
	rep.add("dist.fanout_self_ms", med("dist.fanout_self_ms"), "ms")
	rep.add("dist.merge_ms", med("dist.merge_ms"), "ms")
	rep.add("dist.rpc_wire_ms", med("dist.rpc_wire_ms"), "ms")
	rep.add("node.traced_ms", med("node.traced_ms"), "ms")
	rep.add("dist.rpc_client_ms", histMeanMS(co0, co1, "dl_rpc_client_seconds", ""), "ms")
	rep.add("dist.rpc_bytes_out_per_search", delta(co0, co1, "dl_rpc_bytes_out_total")/requests, "bytes")
	rep.add("dist.rpc_bytes_in_per_search", delta(co0, co1, "dl_rpc_bytes_in_total")/requests, "bytes")
	calls := 0.0
	for k := range n1 {
		if len(k) > len("dl_node_requests_total") && k[:len("dl_node_requests_total")] == "dl_node_requests_total" {
			calls += delta(n0, n1, k)
		}
	}
	rep.add("dist.node_calls_per_search", calls/requests, "count")
	rep.add("node.topn_ms", histMeanMS(n0, n1, "dl_node_request_seconds", `{path="/node/topn"}`), "ms")
	rep.add("node.stats_ms", histMeanMS(n0, n1, "dl_node_request_seconds", `{path="/node/stats"}`), "ms")
	rep.add("node.add_batch_ms", histMeanMS(zero, n1, "dl_node_request_seconds", `{path="/node/add/batch"}`), "ms")
	rep.add("node.scoring_ms", histMeanMS(n0, n1, "dl_node_scoring_seconds", ""), "ms")
	rep.add("persist.stats_block_bytes", replay.Layers["persist.stats_block_bytes"], "bytes")
	rep.add("persist.encode_topn_us", replay.Layers["persist.encode_topn_us"], "us")
	rep.add("persist.oplog_append_ms", histMeanMS(zero, n1, "dl_oplog_append_seconds", ""), "ms")
	rep.add("persist.oplog_fsync_ms", histMeanMS(zero, n1, "dl_oplog_fsync_seconds", ""), "ms")
	rep.add("persist.oplog_fsyncs_per_kdoc", n1["dl_oplog_fsync_seconds_count"]/docs*1000, "count")
	rep.add("persist.oplog_bytes_per_doc", float64(c.oplogBytes())/docs, "bytes")
	for _, k := range []string{"ir.terms_us_per_doc", "ir.add_us_per_doc", "ir.topn_us", "core.add_document_us", "query.parse_us"} {
		rep.add(k, replay.Layers[k], "us")
	}
	rep.add("ir.vocabulary_terms", replay.Layers["ir.vocabulary_terms"], "count")
	rep.add("core.rank_cache_hit_ratio", replay.Layers["core.rank_cache_hit_ratio"], "1")
	rep.add("core.add_document_growth", replay.Layers["core.add_document_growth"], "1")
	rep.add("proc.heap_mb.coordinator", co1["go_memstats_heap_alloc_bytes"]/(1<<20), "MiB")
	rep.add("proc.heap_mb.nodes", n1["go_memstats_heap_alloc_bytes"]/(1<<20), "MiB")
	rep.add("client.http_ms", med("client.http_ms"), "ms")

	// Accounting: the layers' median self times next to the traced
	// end-to-end median; what they do not explain is unattributed.
	e2e := percentile(latenciesMS(ph.samples), 0.5)
	var parts []string
	if b.w.name == "query" {
		parts = []string{"client.http_ms", "server.query_parse_ms", "server.query_execute_ms", "server.query_self_ms"}
	} else {
		parts = []string{"client.http_ms", "server.search_parse_ms", "dist.stats_ms", "dist.fanout_ms", "dist.merge_ms", "server.search_self_ms"}
	}
	sum := 0.0
	fmt.Printf("accounting %s: traced end-to-end p50 %.3f ms over %d requests\n", b.w.name, e2e, len(ph.samples))
	for _, p := range parts {
		fmt.Printf("accounting   %-28s %9.3f ms\n", p, med(p))
		sum += med(p)
	}
	if b.w.name != "query" {
		fmt.Printf("accounting     of dist.fanout_ms: fan-out self (request encoding) %.3f ms, RPC outside the node handler %.3f ms, node handler %.3f ms\n",
			med("dist.fanout_self_ms"), med("dist.rpc_wire_ms"), med("node.traced_ms"))
		fmt.Printf("accounting     replayed persist.encode_topn_us %.0f us per node request (stats block %.0f bytes)\n",
			replay.Layers["persist.encode_topn_us"], replay.Layers["persist.stats_block_bytes"])
	}
	fmt.Printf("accounting   %-28s %9.3f ms\n", "unattributed", e2e-sum)
	rep.add("accounting.unattributed_ms", e2e-sum, "ms")
	plainP50 := percentile(latenciesMS(plain.samples), 0.5)
	fmt.Printf("tracing overhead %s: p50 %.3f ms traced vs %.3f ms untraced (%+.3f ms); qps %.2f vs %.2f\n",
		b.w.name, e2e, plainP50, e2e-plainP50,
		float64(len(ph.samples))/ph.elapsed.Seconds(), float64(len(plain.samples))/plain.elapsed.Seconds())
	rep.add("trace.overhead_p50_ms", e2e-plainP50, "ms")
	if b.w.name != "query" {
		dom := "dist.fanout_ms"
		for _, p := range parts {
			if med(p) > med(dom) {
				dom = p
			}
		}
		fmt.Printf("finding %s: the largest share of the /search median is %s (%.3f of %.3f ms)\n", b.w.name, dom, med(dom), e2e)
		// The profile-based prediction: encoding the global-stats block
		// into every node request dominates the fan-out.
		enc, wire, node := med("dist.fanout_self_ms"), med("dist.rpc_wire_ms"), med("node.traced_ms")
		verdict := "holds"
		if enc < wire || enc < node {
			verdict = "does not hold"
		}
		fmt.Printf("finding %s: prediction that request encoding dominates dist.fanout_ms %s (encoding %.3f, RPC outside the node handler %.3f, node handler %.3f ms)\n",
			b.w.name, verdict, enc, wire, node)
	}
	return rep
}

// report collects metrics and prints each as it is added.
type report struct{ metrics map[string]metric }

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %s %g %s\n", name, v, unit)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if !s.failed {
			out = append(out, ms(s.latency))
		}
	}
	sort.Float64s(out)
	return out
}

// percentile of an ascending slice (nearest rank); 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
