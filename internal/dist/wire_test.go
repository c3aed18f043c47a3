package dist_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/server"
)

// startCodecCluster spins up k node servers and a cluster of
// RemoteNodes speaking the given codec to them.
func startCodecCluster(t testing.TB, k int, codec dist.Codec, jsonOnlyNodes bool) *dist.Cluster {
	t.Helper()
	nodes := make([]dist.Node, k)
	for i := 0; i < k; i++ {
		cfg := &server.NodeConfig{JSONOnly: jsonOnlyNodes}
		srv := httptest.NewServer(server.NewNodeHandler(ir.NewIndex(), cfg))
		t.Cleanup(srv.Close)
		rn := dist.NewRemoteNode(srv.URL, srv.Client())
		rn.SetCodec(codec)
		nodes[i] = rn
	}
	return dist.NewClusterOf(nodes, nil)
}

// TestCodecsByteIdentical is the cross-codec property: for k ∈
// {1, 2, 4, 8}, the JSON protocol, binary HTTP bodies and the
// persistent-connection transport return byte-identical rankings —
// documents AND float-bit-exact scores — and identical quality, both
// on the exact path and under a budgeted plan.
func TestCodecsByteIdentical(t *testing.T) {
	docs := remoteCorpus(300, 11)
	queries := []string{
		"champion winner serve",
		"seles",
		"melbourne trophy volley match",
		"quetzalcoatl", // unknown term
	}
	codecs := []struct {
		name  string
		codec dist.Codec
	}{
		{"json", dist.CodecJSON},
		{"binary", dist.CodecBinary},
		{"wire", dist.CodecWire},
	}
	for _, k := range []int{1, 2, 4, 8} {
		clusters := make([]*dist.Cluster, len(codecs))
		for ci, c := range codecs {
			clusters[ci] = startCodecCluster(t, k, c.codec, false)
			for i, d := range docs {
				if err := clusters[ci].AddContext(context.Background(), bat.OID(i+1), "u", d); err != nil {
					t.Fatalf("codec=%s k=%d add: %v", c.name, k, err)
				}
			}
		}
		for _, q := range queries {
			for _, n := range []int{1, 2, 4, 8} {
				base, err := clusters[0].Search(context.Background(), q, n)
				if err != nil {
					t.Fatalf("k=%d q=%q json search: %v", k, q, err)
				}
				basePlan, err := clusters[0].SearchPlan(context.Background(), q, ir.EvalPlan{N: n, Budget: 1})
				if err != nil {
					t.Fatalf("k=%d q=%q json planned search: %v", k, q, err)
				}
				for ci := 1; ci < len(codecs); ci++ {
					ctxs := fmt.Sprintf("codec=%s k=%d q=%q n=%d", codecs[ci].name, k, q, n)
					sr, err := clusters[ci].Search(context.Background(), q, n)
					if err != nil {
						t.Fatalf("%s: %v", ctxs, err)
					}
					if !sr.Complete() {
						t.Fatalf("%s: dropped %v", ctxs, sr.Dropped)
					}
					if len(sr.Results) != len(base.Results) {
						t.Fatalf("%s: %d results, want %d", ctxs, len(sr.Results), len(base.Results))
					}
					for i := range base.Results {
						if sr.Results[i] != base.Results[i] {
							t.Fatalf("%s: rank %d = %+v, want %+v", ctxs, i, sr.Results[i], base.Results[i])
						}
					}
					pr, err := clusters[ci].SearchPlan(context.Background(), q, ir.EvalPlan{N: n, Budget: 1})
					if err != nil {
						t.Fatalf("%s planned: %v", ctxs, err)
					}
					if len(pr.Results) != len(basePlan.Results) {
						t.Fatalf("%s planned: %d results, want %d", ctxs, len(pr.Results), len(basePlan.Results))
					}
					for i := range basePlan.Results {
						if pr.Results[i] != basePlan.Results[i] {
							t.Fatalf("%s planned: rank %d = %+v, want %+v", ctxs, i, pr.Results[i], basePlan.Results[i])
						}
					}
					if pr.Quality != basePlan.Quality {
						t.Fatalf("%s planned: quality %v, want %v", ctxs, pr.Quality, basePlan.Quality)
					}
				}
			}
		}
	}
}

// TestWireFallsBackToJSONOnlyNode: a CodecWire client against a node
// started -wire=json negotiates all the way down — the upgrade is
// refused, binary bodies answer 415 — and every RPC still succeeds
// over JSON, permanently remembered per peer.
func TestWireFallsBackToJSONOnlyNode(t *testing.T) {
	c := startCodecCluster(t, 2, dist.CodecWire, true)
	docs := remoteCorpus(60, 5)
	for i, d := range docs {
		if err := c.AddContext(context.Background(), bat.OID(i+1), "u", d); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	sr, err := c.Search(context.Background(), "champion serve", 5)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !sr.Complete() || len(sr.Results) == 0 {
		t.Fatalf("degraded search over JSON-only nodes: %+v", sr)
	}
}

// TestWireConnTransport exercises the persistent-connection hot path
// directly: WireInfo reports the upgraded transport, traffic is
// counted, and the node server's graceful shutdown reaps the
// hijacked connections (which left the http.Server's own accounting).
func TestWireConnTransport(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: server.NewNodeHandler(ir.NewIndex(), nil)}
	done := make(chan struct{})
	go func() { srv.Serve(ln); close(done) }()

	rn := dist.NewRemoteNode("http://"+ln.Addr().String(), &http.Client{Timeout: 5 * time.Second})
	rn.SetCodec(dist.CodecWire)
	ctx := context.Background()
	if err := rn.Add(ctx, 1, "u", "melbourne champion ace"); err != nil {
		t.Fatalf("add: %v", err)
	}
	stats, err := rn.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	rs, err := rn.TopNWithStats(ctx, "champion", 5, stats)
	if err != nil {
		t.Fatalf("topn: %v", err)
	}
	if len(rs) != 1 || rs[0].Doc != 1 {
		t.Fatalf("topn over wire conn: %+v", rs)
	}
	codec, in, out := rn.WireInfo()
	if codec != "wire" {
		t.Fatalf("codec = %q, want wire", codec)
	}
	if in == 0 || out == 0 {
		t.Fatalf("wire traffic not counted: in=%d out=%d", in, out)
	}

	// Graceful shutdown must close the upgraded conns, not leave their
	// serve loops running: afterwards the same RemoteNode cannot reach
	// the node at all (redial refused), like any dead peer.
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	if _, err := rn.TopNWithStats(ctx, "champion", 5, stats); err == nil {
		t.Fatal("RPC succeeded against a shut-down node")
	}
}

// TestWireConnSaturationSheds: framed RPCs draw from the same
// in-flight budget as HTTP requests — a saturated node answers a
// framed 503 rather than queueing unboundedly, and the client
// surfaces it as an error.
func TestWireConnSaturationSheds(t *testing.T) {
	// MaxConcurrent 1 and a burst of 16 concurrent framed RPCs: the
	// slot serialises them, and any RPC arriving while the slot is
	// held is answered with a framed 503 that surfaces as a clean
	// client-side error — never a deadlock, never a torn stream.
	ix := ir.NewIndex()
	ix.Add(1, "u", "champion")
	srv := httptest.NewServer(server.NewNodeHandler(ix, &server.NodeConfig{MaxConcurrent: 1}))
	t.Cleanup(srv.Close)

	rn := dist.NewRemoteNode(srv.URL, srv.Client())
	rn.SetCodec(dist.CodecWire)
	stats, err := rn.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := rn.TopNWithStats(context.Background(), "champion", 3, stats)
			errs <- err
		}()
	}
	var ok, shed int
	for i := 0; i < 16; i++ {
		if err := <-errs; err == nil {
			ok++
		} else {
			shed++
		}
	}
	if ok == 0 {
		t.Fatal("every concurrent wire RPC failed")
	}
	t.Logf("16 concurrent RPCs over MaxConcurrent=1: %d served, %d shed", ok, shed)
}

// TestSearchRequestCarriesQueryStats: a node request ships the
// statistics of the query's stems, not the whole vocabulary. On a
// cluster of over 10k stems, one exact and one budgeted search for a
// 3-term query each send every node under 1 KiB, over every codec.
func TestSearchRequestCarriesQueryStats(t *testing.T) {
	docs := make([]dist.Doc, 200)
	for i := range docs {
		var sb strings.Builder
		sb.WriteString("champion winner serve ")
		for w := 0; w < 60; w++ {
			fmt.Fprintf(&sb, "v%dx%d ", i, w)
		}
		docs[i] = dist.Doc{OID: bat.OID(i + 1), URL: "u", Text: sb.String()}
	}
	for _, codec := range []struct {
		name  string
		codec dist.Codec
	}{{"json", dist.CodecJSON}, {"binary", dist.CodecBinary}, {"wire", dist.CodecWire}} {
		c := startCodecCluster(t, 2, codec.codec, false)
		ctx := context.Background()
		if err := c.AddBatchContext(ctx, docs); err != nil {
			t.Fatalf("codec=%s add: %v", codec.name, err)
		}
		global, err := c.GlobalStatsContext(ctx)
		if err != nil {
			t.Fatalf("codec=%s stats: %v", codec.name, err)
		}
		if len(global.DF) < 10000 {
			t.Fatalf("codec=%s: %d stems, want ≥ 10000", codec.name, len(global.DF))
		}
		for _, plan := range []ir.EvalPlan{{N: 10}, {N: 10, Budget: 1, MinQuality: 0.9}} {
			before := make([]uint64, c.Size())
			for g := range before {
				_, _, before[g] = c.NodeAt(g).(*dist.RemoteNode).WireInfo()
			}
			sr, err := c.SearchPlan(ctx, "champion winner serve", plan)
			if err != nil || !sr.Complete() || len(sr.Results) == 0 {
				t.Fatalf("codec=%s plan=%+v: search %+v, %v", codec.name, plan, sr, err)
			}
			for g := range before {
				_, _, out := c.NodeAt(g).(*dist.RemoteNode).WireInfo()
				if sent := out - before[g]; sent == 0 || sent >= 1024 {
					t.Fatalf("codec=%s plan=%+v node %d: request of %d bytes, want (0, 1024)", codec.name, plan, g, sent)
				}
			}
		}
	}
}

// TestTracedStatsOverBinary: a statistics refresh with a trace riding
// the context (every coordinator request carries one) is a GET that
// asks for the binary encoding, and still reads a JSON-only peer's
// JSON answer.
func TestTracedStatsOverBinary(t *testing.T) {
	ix := ir.NewIndex()
	for i, d := range remoteCorpus(200, 3) {
		ix.Add(bat.OID(i+1), "u", d)
	}
	srv := httptest.NewServer(server.NewNodeHandler(ix, nil))
	t.Cleanup(srv.Close)
	jsonSrv := httptest.NewServer(server.NewNodeHandler(ix, &server.NodeConfig{JSONOnly: true}))
	t.Cleanup(jsonSrv.Close)
	ctx := obs.NewContext(context.Background(), obs.NewTrace("stats-test"))
	want := ix.StatsLocal()

	var sizes []uint64
	for _, tc := range []struct {
		name  string
		url   string
		codec dist.Codec
	}{
		{"binary", srv.URL, dist.CodecBinary},
		{"wire", srv.URL, dist.CodecWire},
		{"json", srv.URL, dist.CodecJSON},
		{"binary-vs-json-node", jsonSrv.URL, dist.CodecBinary},
	} {
		rn := dist.NewRemoteNode(tc.url, srv.Client())
		rn.SetCodec(tc.codec)
		got, err := rn.Stats(ctx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Docs != want.Docs || got.TotalDF != want.TotalDF || len(got.DF) != len(want.DF) {
			t.Fatalf("%s: stats {Docs:%d TotalDF:%d |DF|:%d}, want {%d %d %d}", tc.name,
				got.Docs, got.TotalDF, len(got.DF), want.Docs, want.TotalDF, len(want.DF))
		}
		for term, df := range want.DF {
			if got.DF[term] != df {
				t.Fatalf("%s: DF[%q] = %d, want %d", tc.name, term, got.DF[term], df)
			}
		}
		_, in, _ := rn.WireInfo()
		sizes = append(sizes, in)
	}
	// The binary codecs read a framed block, the JSON ones a JSON body
	// of the same statistics.
	if sizes[0] != sizes[1] || sizes[0] >= sizes[2] || sizes[2] != sizes[3] {
		t.Fatalf("response bytes binary/wire/json/json-node = %v, want binary = wire < json = json-node", sizes)
	}
}
