package main

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"dlsearch/perfbench/workload"
)

// phase is what one timed phase measured.
type phase struct {
	samples []sample      // timed read requests (/search, /query or the probe)
	elapsed time.Duration // wall time of the phase
	docs    int           // documents committed by a timed stream
	wall    time.Duration // wall time of that stream
	lag     time.Duration // how late the open-loop generator ran at most
}

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// loadStats is one corpus load of a setup.
type loadStats struct {
	docs int
	wall time.Duration
}

// wl is one workload: how to launch, load, warm, check and drive it.
type wl struct {
	name      string
	cfg       config
	set       *workload.Set
	ref       *workload.Reference
	coordArgs []string
	// Per untraced run: setups (setup_s is their median) and kill -9 +
	// restart cycles (recovery_s is their median). Cheap ones repeat
	// more, to steady the median.
	setups, recoveries int

	corpus    []byte   // NDJSON body streamed at load (or timed, for ingest)
	corpusN   int      // lines in corpus
	stream    []string // /search texts, in send order
	concepts  []workload.ConceptQuery
	searchRef map[string]workload.SearchAnswer
	queryRef  map[string]workload.QueryAnswer
	poolSize  int
	players   []workload.Player
}

// newWorkload generates a workload's inputs and its reference answers.
func newWorkload(cfg config) (*wl, error) {
	set := workload.New(cfg.seed, workload.SizesFor(cfg.smoke))
	w := &wl{name: cfg.workload, cfg: cfg, set: set, setups: 3, recoveries: 3}
	switch cfg.workload {
	case "search":
		docs := set.SearchCorpus()
		w.corpus, w.corpusN = workload.NDJSON(workload.DocLines(docs)), len(docs)
	case "ingest":
		docs := set.IngestCorpus()
		w.corpus, w.corpusN = workload.NDJSON(workload.DocLines(docs)), len(docs)
		w.setups = 9 // an empty cluster boots in tens of milliseconds
	case "query":
		players, articles := set.AusOpen()
		lines := workload.AusOpenStream(players, articles)
		w.corpus, w.corpusN = workload.NDJSON(lines), len(lines)
		w.players = players
		w.coordArgs = []string{"-engine", "ausopen", "-indexes", "Player.history,Article.body"}
		w.recoveries = 7 // a node of 800 histories restarts in ~0.1 s
		pool := set.ConceptPool(players)
		w.poolSize = len(pool)
		w.concepts = set.ConceptStream(pool, 200000)
	default:
		return nil, fmt.Errorf("unknown workload %q (want search, query or ingest)", cfg.workload)
	}
	if w.name != "query" {
		pool := set.QueryPool()
		w.poolSize = len(pool)
		w.stream = set.QueryStream(pool, 200000)
	}
	ref, err := reference(cfg, false, 0)
	if err != nil {
		return nil, err
	}
	w.ref = ref
	w.searchRef = map[string]workload.SearchAnswer{}
	for _, a := range ref.Search {
		w.searchRef[a.Query] = a
	}
	w.queryRef = map[string]workload.QueryAnswer{}
	for _, a := range ref.Query {
		w.queryRef[a.Query] = a
	}
	if len(w.searchRef)+len(w.queryRef) == 0 {
		return nil, fmt.Errorf("reference has no sampled answers")
	}
	return w, nil
}

// load streams the corpus; the ingest workload loads nothing.
func (w *wl) load(c *cluster) (loadStats, error) {
	if w.name == "ingest" {
		return loadStats{}, nil
	}
	t := time.Now()
	sum, err := stream(c.coord.addr, w.corpus)
	if err != nil {
		return loadStats{}, err
	}
	if sum.Lines != w.corpusN {
		return loadStats{}, fmt.Errorf("stream summary counts %d lines, sent %d", sum.Lines, w.corpusN)
	}
	return loadStats{docs: sum.Committed, wall: time.Since(t)}, nil
}

// warm sends the first warmN requests of the stream, so caches fill
// and lazy set-up finishes before timing. The ingest workload's
// cluster is empty; it only warms the connection paths.
func (w *wl) warm(c *cluster) error {
	const warmN = 32
	cl := newClient()
	defer cl.CloseIdleConnections()
	for i := 0; i < warmN; i++ {
		var err error
		if w.name == "query" {
			_, err = conceptQuery(cl, c.coord.addr, "", w.requestText(i))
		} else {
			_, err = search(cl, c.coord.addr, "", w.requestText(i))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// gate compares the first n sampled answers (all of them when n < 0)
// with the reference. The ingest workload's cluster holds the corpus
// only after its timed stream.
func (w *wl) gate(c *cluster, n int) error {
	if w.name == "ingest" && !c.streamed {
		return nil
	}
	searches, queries := w.ref.Search, w.ref.Query
	if n >= 0 {
		searches, queries = searches[:min(n, len(searches))], queries[:min(n, len(queries))]
	}
	cl := newClient()
	defer cl.CloseIdleConnections()
	for _, a := range searches {
		sr, err := search(cl, c.coord.addr, "", a.Query)
		if err != nil {
			return err
		}
		if err := sameSearch(sr, a); err != nil {
			return err
		}
	}
	for _, a := range queries {
		qr, err := conceptQuery(cl, c.coord.addr, "", a.Query)
		if err != nil {
			return err
		}
		if err := sameQuery(qr, a); err != nil {
			return err
		}
	}
	return nil
}

// timed runs the workload's timed phase. A wrong sampled answer is an
// error; other failed requests are counted.
func (w *wl) timed(c *cluster, seconds float64) (phase, error) {
	d := time.Duration(seconds * float64(time.Second))
	addr := c.coord.addr
	var ph phase
	var wrong atomic.Pointer[error] // set by either client goroutine
	start := time.Now()
	switch w.name {
	case "search":
		ph.samples = closedLoop(2, d, func(cl *http.Client, id string, i int) error {
			q := w.requestText(i)
			sr, err := search(cl, addr, id, q)
			if err != nil {
				return err
			}
			if ref, ok := w.searchRef[q]; ok {
				if err := sameSearch(sr, ref); err != nil {
					wrong.Store(&err)
					return err
				}
			}
			return nil
		})
	case "query":
		ph.samples = closedLoop(2, d, func(cl *http.Client, id string, i int) error {
			q := w.requestText(i)
			qr, err := conceptQuery(cl, addr, id, q)
			if err != nil {
				return err
			}
			if ref, ok := w.queryRef[q]; ok {
				if err := sameQuery(qr, ref); err != nil {
					wrong.Store(&err)
					return err
				}
			}
			return nil
		})
	case "ingest":
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			ph.samples, ph.lag = openLoop(probeRate, stop, func(cl *http.Client, id string, i int) error {
				_, err := search(cl, addr, id, w.requestText(i))
				return err
			})
		}()
		t := time.Now()
		sum, err := stream(addr, w.corpus)
		ph.wall = time.Since(t)
		close(stop)
		<-done
		if err != nil {
			return ph, fmt.Errorf("ingest stream: %w", err)
		}
		if sum.Lines != w.corpusN {
			return ph, fmt.Errorf("ingest stream summary counts %d lines, sent %d", sum.Lines, w.corpusN)
		}
		ph.docs = sum.Committed
		c.streamed = true
		if err := w.gate(c, -1); err != nil {
			return ph, fmt.Errorf("correctness gate after the ingest stream: %w", err)
		}
	}
	ph.elapsed = time.Since(start)
	if w.name == "ingest" {
		ph.elapsed = ph.wall // the probe runs only while the stream does
	}
	if err := wrong.Load(); err != nil {
		return ph, fmt.Errorf("wrong answer in the timed phase: %w", *err)
	}
	return ph, nil
}

// probeRate is the ingest workload's open-loop /search rate, per
// second: a rate the program serves without a growing backlog while
// ingesting (the probe's p50 is about 150 ms on a 2-CPU host).
const probeRate = 4.0

// requestText is the i-th request of the workload's stream. The
// clients of a timed phase take consecutive i, so the requests sent
// are exactly those with i below the sample count.
func (w *wl) requestText(i int) string {
	if w.name == "query" {
		return w.concepts[i%len(w.concepts)].Text
	}
	return w.stream[i%len(w.stream)]
}

// docsIngested is the number of documents the cluster's nodes took in
// over their lifetime: the setup load, or the timed stream.
func (w *wl) docsIngested(ph phase) int {
	if w.name == "ingest" {
		return ph.docs
	}
	return w.corpusN
}

// printProperties prints the workload's input properties.
func (w *wl) printProperties() {
	fmt.Printf("workload %s seed %d\n", w.name, w.cfg.seed)
	fmt.Printf("property distinct_stems %d\n", w.ref.DistinctStems)
	fmt.Printf("property mean_doc_terms %.2f\n", w.ref.MeanDocTerms)
	fmt.Printf("property stats_block_bytes %d\n", w.ref.StatsBlockBytes)
	fmt.Printf("property query_pool_over_cache %.2f (%d distinct requests, node cache %d)\n",
		float64(w.poolSize)/workload.NodeCacheCapacity, w.poolSize, workload.NodeCacheCapacity)
	if w.name == "query" {
		pool := w.set.ConceptPool(w.players)
		sizes := workload.CandidateSizes(w.players, pool)
		fmt.Printf("property restricted_candidates min %d median %d max %d (players per gender x country)\n",
			sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1])
	}
}

// printNamed prints the end-to-end metrics under the names of the
// request they measure (search_*, query_*), the p99 where at least ten
// samples lie beyond it, the failed ratio and the measured share of
// repeated requests.
func (w *wl) printNamed(ph phase, qps float64, lat []float64, ingest, recovery, rss, setup float64, attempted, failed int) {
	prefix := "search"
	if w.name == "query" {
		prefix = "query"
	}
	seen := map[string]bool{}
	repeats := 0
	for i := range ph.samples {
		q := w.requestText(i)
		if seen[q] {
			repeats++
		}
		seen[q] = true
	}
	fmt.Printf("property repeated_request_share %.3f (%d of %d)\n", float64(repeats)/float64(max(len(ph.samples), 1)), repeats, len(ph.samples))
	fmt.Printf("named setup_s %.4f s\n", setup)
	fmt.Printf("named %s_qps %.3f 1/s\n", prefix, qps)
	fmt.Printf("named %s_p50_ms %.3f ms (%d samples)\n", prefix, percentile(lat, 0.5), len(lat))
	if len(lat) >= 1000 {
		fmt.Printf("named %s_p99_ms %.3f ms (%d samples beyond it)\n", prefix, percentile(lat, 0.99), len(lat)-int(0.99*float64(len(lat))))
	} else {
		fmt.Printf("named %s_p99_ms n/a (%d samples; p99 needs 1000 for ten beyond it)\n", prefix, len(lat))
	}
	if w.name == "ingest" {
		fmt.Printf("named probe_generator_max_lag_ms %.3f ms\n", ms(ph.lag))
	}
	fmt.Printf("named ingest_docs_per_s %.2f 1/s\n", ingest)
	fmt.Printf("named recovery_s %.4f s\n", recovery)
	fmt.Printf("named peak_rss_mb %.2f MiB\n", rss)
	fmt.Printf("named failed_ratio %g 1 (%d of %d)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
}
