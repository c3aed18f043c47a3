package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/dist"
	"dlsearch/internal/ir"
	"dlsearch/internal/obs"
	"dlsearch/internal/persist"
)

// frameOf returns a copy of the frame f encodes.
func frameOf(f func(b *persist.WireBuffer)) []byte {
	b := persist.GetWireBuffer()
	defer persist.PutWireBuffer(b)
	f(b)
	return append([]byte(nil), b.Bytes()...)
}

// serveFrame runs one framed RPC through the upgraded-connection
// dispatcher and returns a copy of the answer frame.
func serveFrame(s *NodeServer, frame []byte) []byte {
	return frameOf(func(b *persist.WireBuffer) { s.handleWireFrame(frame, b) })
}

// slowRecords parses the slow-query lines written to buf since the
// last call.
func slowRecords(t *testing.T, buf *syncBuffer) []obs.SlowQueryRecord {
	t.Helper()
	buf.mu.Lock()
	text := buf.b.String()
	buf.b.Reset()
	buf.mu.Unlock()
	var out []obs.SlowQueryRecord
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
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

// TestNodeSlowLogSameOverBothTransports: a node with a slow-query log
// writes one Role:"node" record per top-N or planned search whether it
// arrived over HTTP or as a frame on the upgraded connection, traced
// or not, with the same fields and the same "scoring" span; a traced
// frame's record carries the envelope's request ID, exactly as an HTTP
// request's carries X-DL-Request.
func TestNodeSlowLogSameOverBothTransports(t *testing.T) {
	ix := ir.NewIndex()
	for i, text := range []string{"melbourne champion trophy", "champion winner serve", "volley smash champion", "seles ace"} {
		ix.Add(bat.OID(i+1), "u", text)
	}
	buf := &syncBuffer{}
	s := NewNodeServer(ix, &NodeConfig{SlowQuery: obs.NewSlowQueryLog(buf, time.Nanosecond)})
	h := s.Handler()
	stats := ix.StatsLocal().ForQuery("champion serve")
	plan := ir.EvalPlan{N: 3, Budget: 1, MinQuality: 0.5}
	topn := frameOf(func(b *persist.WireBuffer) { b.EncodeTopNRequest("champion serve", 3, stats) })
	search := frameOf(func(b *persist.WireBuffer) { b.EncodeSearchRequest("champion serve", plan, stats) })
	traced := func(id string, inner []byte) []byte {
		return frameOf(func(b *persist.WireBuffer) { b.EncodeTraced(id, inner) })
	}

	for _, tc := range []struct {
		name  string
		inner []byte
		path  string
		check func([]byte) error
	}{
		{"topn", topn, dist.PathNodeTopN, func(m []byte) error { _, err := persist.DecodeTopNResponse(m); return err }},
		{"search", search, dist.PathNodeSearch, func(m []byte) error { _, _, err := persist.DecodeSearchResponse(m); return err }},
	} {
		var recs []obs.SlowQueryRecord
		for _, via := range []struct {
			id   string
			send func(id string)
		}{
			{"", func(string) { postWire(t, h, tc.path, tc.inner) }},
			{"", func(string) { serveFrame(s, tc.inner) }},
			{"coord-" + tc.name + "-http", func(id string) {
				req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.inner))
				req.Header.Set("Content-Type", persist.WireContentType)
				req.Header.Set(obs.HeaderRequestID, id)
				h.ServeHTTP(httptest.NewRecorder(), req)
			}},
			{"coord-" + tc.name + "-wire", func(id string) {
				if err := tc.check(serveFrame(s, traced(id, tc.inner))); err != nil {
					t.Fatalf("%s: traced answer: %v", tc.name, err)
				}
			}},
		} {
			via.send(via.id)
			got := slowRecords(t, buf)
			if len(got) != 1 {
				t.Fatalf("%s (id %q): %d slow-query records, want 1", tc.name, via.id, len(got))
			}
			rec := got[0]
			if via.id != "" && rec.RequestID != via.id {
				t.Fatalf("%s: record request ID %q, want %q", tc.name, rec.RequestID, via.id)
			}
			if rec.RequestID == "" || rec.Role != "node" || len(rec.Spans) != 1 || rec.Spans[0].Name != "scoring" {
				t.Fatalf("%s (id %q): record %+v", tc.name, via.id, rec)
			}
			recs = append(recs, rec)
		}
		for _, rec := range recs[1:] {
			if rec.Query != recs[0].Query || rec.Results != recs[0].Results || rec.Quality != recs[0].Quality {
				t.Fatalf("%s: records differ across transports: %+v vs %+v", tc.name, rec, recs[0])
			}
		}
	}

	// A traced statistics request is answered like a bare one and writes
	// no query record.
	st, err := persist.DecodeStatsResponse(serveFrame(s, traced("coord-stats", frameOf(func(b *persist.WireBuffer) { b.EncodeStatsRequest() }))))
	if err != nil || st.Docs != ix.StatsLocal().Docs {
		t.Fatalf("traced stats: %+v, %v", st, err)
	}
	// A malformed envelope is a framed 400 that runs nothing.
	bad := serveFrame(s, traced("coord-bad", traced("coord-bad", topn)))
	kind, payload, err := persist.DecodeWire(bad)
	if err != nil || kind != persist.WireError {
		t.Fatalf("nested envelope answered kind %#x, %v", kind, err)
	}
	if status, _, _ := persist.DecodeErrorPayload(payload); status != http.StatusBadRequest {
		t.Fatalf("nested envelope status %d, want 400", status)
	}
	if got := slowRecords(t, buf); len(got) != 0 {
		t.Fatalf("stats and a rejected envelope wrote query records: %+v", got)
	}
}
