package dist_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
	"dlsearch/internal/server"
)

// lockedBuffer is a goroutine-safe slow-query log sink.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// records parses every slow-query line written so far.
func (l *lockedBuffer) records(t *testing.T) []obs.SlowQueryRecord {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.SlowQueryRecord
	for _, line := range strings.Split(strings.TrimSpace(l.b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec obs.SlowQueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("slow-query line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// countedNode is one node server behind a handler that counts the HTTP
// requests reaching the query and statistics endpoints (the upgrade
// request is not counted), with a slow-query log that records every
// query.
type countedNode struct {
	srv  *httptest.Server
	http atomic.Int64
	slow *lockedBuffer
}

func startCountedNode(t *testing.T) *countedNode {
	t.Helper()
	n := &countedNode{slow: &lockedBuffer{}}
	h := server.NewNodeHandler(ir.NewIndex(), &server.NodeConfig{
		SlowQuery: obs.NewSlowQueryLog(n.slow, time.Nanosecond),
	})
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case dist.PathNodeTopN, dist.PathNodeSearch, dist.PathNodeStats:
			n.http.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

// startOldNodeProxy forwards TCP connections to backend and deletes the
// traced-envelope advertisement from the first response header of
// each connection, so the node behind it looks like a build that
// predates the envelope: it upgrades, but does not advertise.
func startOldNodeProxy(t *testing.T, backend string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	advert := strings.ToLower(persist.WireTracedHeader) + ":"
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				b, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer b.Close()
				go func() {
					io.Copy(b, c)
					b.Close()
				}()
				br := bufio.NewReader(b)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if !strings.HasPrefix(strings.ToLower(line), advert) {
						if _, err := io.WriteString(c, line); err != nil {
							return
						}
					}
					if line == "\r\n" {
						break
					}
				}
				io.Copy(c, br)
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// tracedCorpus loads the same documents into c.
func tracedCorpus(t *testing.T, c *dist.Cluster) {
	t.Helper()
	docs := remoteCorpus(300, 17)
	batch := make([]dist.Doc, len(docs))
	for i, d := range docs {
		batch[i] = dist.Doc{OID: bat.OID(i + 1), URL: "u", Text: d}
	}
	if err := c.AddBatchContext(context.Background(), batch); err != nil {
		t.Fatalf("add: %v", err)
	}
}

// tracedQueries are run exact and budgeted by the transport tests.
var tracedQueries = []string{"champion winner serve", "seles", "melbourne trophy volley match"}

// searchAll runs every traced query exact and budgeted, each under a
// fresh trace whose ID is returned, and returns the results.
func searchAll(t *testing.T, c *dist.Cluster, traced bool) (results []*dist.SearchResult, ids []string) {
	t.Helper()
	for _, q := range tracedQueries {
		for _, plan := range []ir.EvalPlan{{N: 10}, {N: 10, Budget: 1, MinQuality: 0.9}} {
			ctx := context.Background()
			if traced {
				tr := obs.NewTrace("")
				ids = append(ids, tr.ID)
				ctx = obs.NewContext(ctx, tr)
			}
			c.InvalidateStats() // every search refreshes statistics too
			sr, err := c.SearchPlan(ctx, q, plan)
			if err != nil || !sr.Complete() || len(sr.Results) == 0 {
				t.Fatalf("%q %+v (traced %v): %+v, %v", q, plan, traced, sr, err)
			}
			results = append(results, sr)
		}
	}
	return results, ids
}

// sameRankings fails unless a and b hold bit-identical rankings and
// quality estimates.
func sameRankings(t *testing.T, what string, a, b []*dist.SearchResult) {
	t.Helper()
	for i := range a {
		if !reflect.DeepEqual(a[i].Results, b[i].Results) || a[i].Quality != b[i].Quality {
			t.Fatalf("%s: search %d differs:\n%+v %+v\n%+v %+v", what, i, a[i].Results, a[i].Quality, b[i].Results, b[i].Quality)
		}
	}
}

// nodeRecordIDs collects the request IDs of the node-role slow-query
// records of every node.
func nodeRecordIDs(t *testing.T, nodes []*countedNode) map[string]bool {
	t.Helper()
	ids := map[string]bool{}
	for _, n := range nodes {
		for _, rec := range n.slow.records(t) {
			if rec.Role == "node" {
				ids[rec.RequestID] = true
			}
		}
	}
	return ids
}

// TestTracedSearchRidesWireConn: over CodecWire nodes, traced searches
// (exact and budgeted) and the traced statistics refreshes under them
// make no HTTP request to a query or statistics endpoint — the request
// ID rides the frame — and answer bit-identically to untraced ones and
// to HTTP binary. Every node writes a slow-query record under the
// coordinator's request ID, with its scoring span, and the
// coordinator's trace has its RPC spans.
func TestTracedSearchRidesWireConn(t *testing.T) {
	nodes := []*countedNode{startCountedNode(t), startCountedNode(t)}
	cluster := func(codec dist.Codec) *dist.Cluster {
		rns := make([]dist.Node, len(nodes))
		for i, n := range nodes {
			rn := dist.NewRemoteNode(n.srv.URL, n.srv.Client())
			rn.SetCodec(codec)
			rns[i] = rn
		}
		return dist.NewClusterOf(rns, nil)
	}
	wire, binary := cluster(dist.CodecWire), cluster(dist.CodecBinary)
	tracedCorpus(t, wire)

	untraced, _ := searchAll(t, wire, false)
	if got := nodes[0].http.Load() + nodes[1].http.Load(); got != 0 {
		t.Fatalf("untraced searches made %d HTTP node requests", got)
	}
	traced, ids := searchAll(t, wire, true)
	if got := nodes[0].http.Load() + nodes[1].http.Load(); got != 0 {
		t.Fatalf("traced searches made %d HTTP node requests, want 0", got)
	}
	sameRankings(t, "traced wire vs untraced wire", traced, untraced)
	overHTTP, _ := searchAll(t, binary, true)
	if nodes[0].http.Load() == 0 || nodes[1].http.Load() == 0 {
		t.Fatal("the HTTP binary control made no HTTP requests")
	}
	sameRankings(t, "traced wire vs traced HTTP binary", traced, overHTTP)
	for i := 0; i < wire.Size(); i++ {
		if codec, _, _ := wire.NodeAt(i).(*dist.RemoteNode).WireInfo(); codec != "wire" {
			t.Fatalf("node %d codec %q, want wire", i, codec)
		}
	}

	for _, n := range nodes {
		byID := map[string]obs.SlowQueryRecord{}
		for _, rec := range n.slow.records(t) {
			byID[rec.RequestID] = rec
		}
		for _, id := range ids {
			rec, ok := byID[id]
			if !ok {
				t.Fatalf("node %s wrote no slow-query record for request %s", n.srv.URL, id)
			}
			if rec.Role != "node" || len(rec.Spans) != 1 || rec.Spans[0].Name != "scoring" {
				t.Fatalf("node record for %s: %+v", id, rec)
			}
		}
	}

	tr := obs.NewTrace("")
	wire.InvalidateStats()
	if _, err := wire.Search(obs.NewContext(context.Background(), tr), "champion", 5); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, sp := range tr.Spans() {
		spans[sp.Name]++
	}
	if spans["rpc:"+dist.PathNodeStats] != 2 || spans["rpc:"+dist.PathNodeTopN] != 2 || spans["fanout"] != 1 {
		t.Fatalf("coordinator spans %v, want two rpc:/node/stats, two rpc:/node/topn, one fanout", spans)
	}
}

// TestTracedSearchAgainstOldNode: a node whose upgrade answer does not
// advertise the traced envelope (an older build, simulated by a proxy
// that strips the header) still serves traced searches, over HTTP
// binary with the ID in X-DL-Request, bit-identical to the untraced
// ones, which stay on the connection.
func TestTracedSearchAgainstOldNode(t *testing.T) {
	nodes := []*countedNode{startCountedNode(t), startCountedNode(t)}
	rns := make([]dist.Node, len(nodes))
	for i, n := range nodes {
		rn := dist.NewRemoteNode(startOldNodeProxy(t, n.srv.Listener.Addr().String()), n.srv.Client())
		rn.SetCodec(dist.CodecWire)
		rns[i] = rn
	}
	c := dist.NewClusterOf(rns, nil)
	tracedCorpus(t, c)

	untraced, _ := searchAll(t, c, false)
	if got := nodes[0].http.Load() + nodes[1].http.Load(); got != 0 {
		t.Fatalf("untraced searches made %d HTTP node requests, want 0 (they stay on the connection)", got)
	}
	traced, ids := searchAll(t, c, true)
	// Per search and node: one statistics GET plus one query POST.
	if got, want := nodes[0].http.Load(), int64(2*len(traced)); got != want {
		t.Fatalf("traced searches made %d HTTP requests to node 0, want %d", got, want)
	}
	sameRankings(t, "traced (HTTP binary) vs untraced (wire)", traced, untraced)
	for i := range rns {
		if codec, _, _ := rns[i].(*dist.RemoteNode).WireInfo(); codec != "wire" {
			t.Fatalf("node %d codec %q, want wire", i, codec)
		}
	}
	got := nodeRecordIDs(t, nodes)
	for _, id := range ids {
		if !got[id] {
			t.Fatalf("no node slow-query record for request %s", id)
		}
	}
}

// TestWireConnAfterNodeRestart: when a node restarts, every idle
// connection pooled to its old process is dead. The first RPC after
// the restart, traced or not, must still succeed: one stale
// connection costs one retry on a fresh dial, not a failed RPC per
// pooled connection.
func TestWireConnAfterNodeRestart(t *testing.T) {
	ix := ir.NewIndex()
	ix.Add(1, "u", "melbourne champion ace")
	serve := func(ln net.Listener) *http.Server {
		srv := &http.Server{Handler: server.NewNodeHandler(ix, nil)}
		go srv.Serve(ln)
		return srv
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(ln)
	rn := dist.NewRemoteNode("http://"+ln.Addr().String(), &http.Client{Timeout: 5 * time.Second})
	rn.SetCodec(dist.CodecWire)

	// Concurrent RPCs on an empty pool each dial, leaving several idle
	// connections behind.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := rn.Stats(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ln, err = net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv = serve(ln)
	t.Cleanup(func() { srv.Close() })

	traced := obs.NewContext(context.Background(), obs.NewTrace("after-restart"))
	for i, c := range []context.Context{traced, context.Background(), traced} {
		st, err := rn.Stats(c)
		if err != nil {
			t.Fatalf("RPC %d after the restart: %v", i, err)
		}
		if st.Docs != 1 {
			t.Fatalf("RPC %d after the restart: %+v", i, st)
		}
	}
}
