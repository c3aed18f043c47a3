package persist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// wireTestStats is a small but non-trivial statistics block.
func wireTestStats() ir.Stats {
	return ir.Stats{
		DF:      map[string]int{"melbourne": 3, "champion": 17, "ace": 1},
		TotalDF: 21,
		Docs:    400,
	}
}

// wireTestResults is a RES set in score order with oids that are not
// monotone, exercising the signed-delta encoding.
func wireTestResults() []ir.Result {
	return []ir.Result{
		{Doc: 42, Score: 0.91},
		{Doc: 7, Score: 0.5},
		{Doc: 1000000, Score: 0.25},
		{Doc: 999999, Score: math.SmallestNonzeroFloat64},
		{Doc: 3, Score: 0},
	}
}

// wireMessages returns one encoded frame of every message kind,
// paired with a decoder that must fail closed on any mutation.
func wireMessages(t *testing.T) map[string]struct {
	msg    []byte
	decode func([]byte) error
} {
	t.Helper()
	enc := func(f func(b *WireBuffer)) []byte {
		b := GetWireBuffer()
		defer PutWireBuffer(b)
		f(b)
		if err := b.Err(); err != nil {
			t.Fatalf("encode: %v", err)
		}
		return append([]byte(nil), b.Bytes()...)
	}
	stats, rs := wireTestStats(), wireTestResults()
	plan := ir.EvalPlan{N: 10, Frags: 8, Budget: 3, MinQuality: 0.75}
	q := ir.QualityEstimate{CoveredIDF: 1.5, TotalIDF: 2.5, FragsUsed: 3, FragsTotal: 8}
	ops := []Op{
		{Doc: 1, URL: "u1", Text: "melbourne champion"},
		{Doc: 2, Text: "ace"},
	}
	return map[string]struct {
		msg    []byte
		decode func([]byte) error
	}{
		"topn-request": {
			enc(func(b *WireBuffer) { b.EncodeTopNRequest("champion ace", 10, stats) }),
			func(m []byte) error { _, _, _, err := DecodeTopNRequest(m, nil); return err },
		},
		"search-request": {
			enc(func(b *WireBuffer) { b.EncodeSearchRequest("champion", plan, stats) }),
			func(m []byte) error { _, _, _, err := DecodeSearchRequest(m, nil); return err },
		},
		"topn-response": {
			enc(func(b *WireBuffer) { b.EncodeTopNResponse(rs) }),
			func(m []byte) error { _, err := DecodeTopNResponse(m); return err },
		},
		"search-response": {
			enc(func(b *WireBuffer) { b.EncodeSearchResponse(rs, q) }),
			func(m []byte) error { _, _, err := DecodeSearchResponse(m); return err },
		},
		"addbatch-request": {
			enc(func(b *WireBuffer) { b.EncodeAddBatchRequest(ops) }),
			func(m []byte) error { _, err := DecodeAddBatchRequest(m); return err },
		},
		"stats-request": {
			enc(func(b *WireBuffer) { b.EncodeStatsRequest() }),
			func(m []byte) error { return DecodeStatsRequest(m) },
		},
		"stats-response": {
			enc(func(b *WireBuffer) { b.EncodeStatsResponse(stats) }),
			func(m []byte) error { _, err := DecodeStatsResponse(m); return err },
		},
		"traced-search-request": {
			enc(func(b *WireBuffer) {
				b.EncodeTraced("0123456789abcdef", enc(func(b *WireBuffer) { b.EncodeSearchRequest("champion", plan, stats) }))
			}),
			func(m []byte) error {
				_, inner, err := DecodeTraced(m)
				if err != nil {
					return err
				}
				_, _, _, err = DecodeSearchRequest(inner, nil)
				return err
			},
		},
		"ack": {
			enc(func(b *WireBuffer) { b.EncodeAck() }),
			func(m []byte) error { return DecodeAck(m) },
		},
		"error": {
			enc(func(b *WireBuffer) { b.EncodeError(503, "at capacity") }),
			func(m []byte) error {
				kind, payload, err := DecodeWire(m)
				if err != nil {
					return err
				}
				if kind != WireError {
					return ErrWireCorrupt
				}
				_, _, err = DecodeErrorPayload(payload)
				return err
			},
		},
	}
}

// TestWireRoundTrip: every message kind decodes back to exactly what
// was encoded — oids, float-bit-exact scores, statistics, plans.
func TestWireRoundTrip(t *testing.T) {
	stats, rs := wireTestStats(), wireTestResults()

	b := GetWireBuffer()
	defer PutWireBuffer(b)

	b.EncodeTopNRequest("champion ace", 10, stats)
	query, n, st, err := DecodeTopNRequest(append([]byte(nil), b.Bytes()...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if query != "champion ace" || n != 10 || !reflect.DeepEqual(st, stats) {
		t.Fatalf("topn request round trip: %q %d %+v", query, n, st)
	}

	plan := ir.EvalPlan{N: 10, Frags: 8, Budget: 3, MinQuality: 0.75}
	b.EncodeSearchRequest("champion", plan, stats)
	query, gotPlan, st, err := DecodeSearchRequest(append([]byte(nil), b.Bytes()...), nil)
	if err != nil {
		t.Fatal(err)
	}
	if query != "champion" || gotPlan != plan || !reflect.DeepEqual(st, stats) {
		t.Fatalf("search request round trip: %q %+v %+v", query, gotPlan, st)
	}

	b.EncodeTopNResponse(rs)
	got, err := DecodeTopNResponse(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatalf("results round trip: %+v, want %+v", got, rs)
	}

	q := ir.QualityEstimate{CoveredIDF: 1.5, TotalIDF: 2.5, FragsUsed: 3, FragsTotal: 8}
	b.EncodeSearchResponse(rs, q)
	got, gotQ, err := DecodeSearchResponse(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) || gotQ != q {
		t.Fatalf("search response round trip: %+v %+v", got, gotQ)
	}

	ops := []Op{
		{Doc: 1, URL: "u1", Text: "melbourne champion"},
		{Doc: 2, Text: "ace"},
	}
	b.EncodeAddBatchRequest(ops)
	gotOps, err := DecodeAddBatchRequest(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOps) != len(ops) {
		t.Fatalf("%d ops, want %d", len(gotOps), len(ops))
	}
	for i := range ops {
		if gotOps[i].Doc != ops[i].Doc || gotOps[i].URL != ops[i].URL || gotOps[i].Text != ops[i].Text {
			t.Fatalf("op %d = %+v, want %+v", i, gotOps[i], ops[i])
		}
	}

	b.EncodeStatsResponse(stats)
	st, err = DecodeStatsResponse(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, stats) {
		t.Fatalf("stats round trip: %+v", st)
	}

	b.EncodeError(503, "at capacity")
	kind, payload, err := DecodeWire(b.Bytes())
	if err != nil || kind != WireError {
		t.Fatalf("error frame: kind %#x err %v", kind, err)
	}
	status, msg, err := DecodeErrorPayload(payload)
	if err != nil || status != 503 || msg != "at capacity" {
		t.Fatalf("error payload: %d %q %v", status, msg, err)
	}

	// Empty-payload kinds.
	b.EncodeAck()
	if err := DecodeAck(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	b.EncodeStatsRequest()
	if err := DecodeStatsRequest(b.Bytes()); err != nil {
		t.Fatal(err)
	}

	// Zero-value edge cases.
	b.EncodeTopNResponse(nil)
	if got, err := DecodeTopNResponse(b.Bytes()); err != nil || len(got) != 0 {
		t.Fatalf("empty results: %v %v", got, err)
	}
	b.EncodeStatsResponse(ir.Stats{})
	if st, err := DecodeStatsResponse(b.Bytes()); err != nil || st.Docs != 0 || len(st.DF) != 0 {
		t.Fatalf("empty stats: %+v %v", st, err)
	}
}

// encodeWire returns a copy of the frame f encodes.
func encodeWire(f func(b *WireBuffer)) []byte {
	b := GetWireBuffer()
	defer PutWireBuffer(b)
	f(b)
	return append([]byte(nil), b.Bytes()...)
}

// TestWireTracedEnvelope: an envelope returns its request ID and the
// inner request frame byte for byte, for every request kind; an empty
// ID, a nested envelope, a non-request inner frame and an inner frame
// that fails its own checksum are rejected even though the envelope's
// checksum verifies.
func TestWireTracedEnvelope(t *testing.T) {
	const id = "0123456789abcdef"
	stats := wireTestStats()
	topn := encodeWire(func(b *WireBuffer) { b.EncodeTopNRequest("champion ace", 10, stats) })
	for name, inner := range map[string][]byte{
		"topn":     topn,
		"search":   encodeWire(func(b *WireBuffer) { b.EncodeSearchRequest("champion", ir.EvalPlan{N: 5, Budget: 2}, stats) }),
		"addbatch": encodeWire(func(b *WireBuffer) { b.EncodeAddBatchRequest([]Op{{Doc: 1, Text: "ace"}}) }),
		"stats":    encodeWire(func(b *WireBuffer) { b.EncodeStatsRequest() }),
	} {
		env := encodeWire(func(b *WireBuffer) { b.EncodeTraced(id, inner) })
		if WirePeekKind(env) != WireTraced {
			t.Fatalf("%s: envelope kind %#x", name, WirePeekKind(env))
		}
		gotID, gotInner, err := DecodeTraced(env)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if gotID != id || !bytes.Equal(gotInner, inner) {
			t.Fatalf("%s: round trip gave id %q and %d inner bytes, want %q and %d", name, gotID, len(gotInner), id, len(inner))
		}
	}
	_, inner, err := DecodeTraced(encodeWire(func(b *WireBuffer) { b.EncodeTraced(id, topn) }))
	if err != nil {
		t.Fatal(err)
	}
	if query, n, st, err := DecodeTopNRequest(inner, nil); err != nil || query != "champion ace" || n != 10 || !reflect.DeepEqual(st, stats) {
		t.Fatalf("inner top-N request: %q %d %+v %v", query, n, st, err)
	}

	wrap := func(id string, inner []byte) []byte {
		return encodeWire(func(b *WireBuffer) { b.EncodeTraced(id, inner) })
	}
	badInner := append([]byte(nil), topn...)
	badInner[len(badInner)-1] ^= 1 // the envelope's checksum covers this copy
	for name, env := range map[string][]byte{
		"empty id":       wrap("", topn),
		"nested":         wrap(id, wrap(id, topn)),
		"response inner": wrap(id, encodeWire(func(b *WireBuffer) { b.EncodeTopNResponse(wireTestResults()) })),
		"error inner":    wrap(id, encodeWire(func(b *WireBuffer) { b.EncodeError(500, "x") })),
		"corrupt inner":  wrap(id, badInner),
		"no inner":       wrap(id, nil),
		"bare request":   topn,
	} {
		if _, _, err := DecodeTraced(env); err == nil {
			t.Fatalf("%s: envelope decoded", name)
		} else if !errors.Is(err, ErrWireCorrupt) {
			t.Fatalf("%s: %v is not ErrWireCorrupt", name, err)
		}
	}
}

// TestWireTruncationFailsClosed: a frame cut at ANY byte boundary is
// rejected — no prefix of a valid message is itself a valid message,
// and no decode ever panics or partially succeeds.
func TestWireTruncationFailsClosed(t *testing.T) {
	for name, m := range wireMessages(t) {
		for i := 0; i < len(m.msg); i++ {
			if err := m.decode(m.msg[:i]); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded successfully", name, i, len(m.msg))
			}
		}
	}
}

// TestWireBitFlipsFailClosed: flipping any single bit anywhere in a
// frame — header or payload — is detected. The payload is covered by
// the checksum; the header fields are validated field by field.
func TestWireBitFlipsFailClosed(t *testing.T) {
	for name, m := range wireMessages(t) {
		corrupted := make([]byte, len(m.msg))
		for i := 0; i < len(m.msg); i++ {
			for bit := 0; bit < 8; bit++ {
				copy(corrupted, m.msg)
				corrupted[i] ^= 1 << bit
				if err := m.decode(corrupted); err == nil {
					t.Fatalf("%s with bit %d of byte %d flipped decoded successfully", name, bit, i)
				}
			}
		}
	}
}

// TestWireTrailingBytesFailClosed: bytes after the framed length are
// corruption, not padding.
func TestWireTrailingBytesFailClosed(t *testing.T) {
	for name, m := range wireMessages(t) {
		grown := append(append([]byte(nil), m.msg...), 0)
		if err := m.decode(grown); err == nil {
			t.Fatalf("%s with a trailing byte decoded successfully", name)
		}
	}
}

// TestWireVersionAndKind: future versions and unknown kinds are
// rejected up front; typed decoders reject the wrong kind even when
// the frame itself verifies.
func TestWireVersionAndKind(t *testing.T) {
	b := GetWireBuffer()
	defer PutWireBuffer(b)
	b.EncodeAck()
	msg := append([]byte(nil), b.Bytes()...)

	bad := append([]byte(nil), msg...)
	bad[6] = WireVersion + 1 // version byte follows the 6-byte magic
	if _, _, err := DecodeWire(bad); err == nil {
		t.Fatal("future version accepted")
	}

	// A verified Ack handed to every OTHER typed decoder must be
	// refused by kind, not misparsed.
	if err := DecodeStatsRequest(msg); err == nil {
		t.Fatal("ack accepted as stats request")
	}
	if _, err := DecodeTopNResponse(msg); err == nil {
		t.Fatal("ack accepted as topn response")
	}
	if _, _, _, err := DecodeTopNRequest(msg, nil); err == nil {
		t.Fatal("ack accepted as topn request")
	}
}

// TestWireStatsCacheInterns: two requests carrying byte-identical
// statistics blocks decode to the SAME map (interned by digest), and
// a changed block misses the cache and re-decodes.
func TestWireStatsCacheInterns(t *testing.T) {
	var cache WireStatsCache
	b := GetWireBuffer()
	defer PutWireBuffer(b)

	st := wireTestStats()
	b.EncodeTopNRequest("q", 5, st)
	msg := append([]byte(nil), b.Bytes()...)
	_, _, first, err := DecodeTopNRequest(msg, &cache)
	if err != nil {
		t.Fatal(err)
	}
	_, _, second, err := DecodeTopNRequest(msg, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("interned stats differ: %+v vs %+v", first, second)
	}
	if reflect.ValueOf(first.DF).Pointer() != reflect.ValueOf(second.DF).Pointer() {
		t.Fatal("identical stats blocks were not interned")
	}

	st.DF["newterm"] = 9
	st.TotalDF += 9
	b.EncodeTopNRequest("q", 5, st)
	_, _, third, err := DecodeTopNRequest(b.Bytes(), &cache)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(first.DF).Pointer() == reflect.ValueOf(third.DF).Pointer() {
		t.Fatal("changed stats block wrongly served from cache")
	}
	if third.DF["newterm"] != 9 {
		t.Fatalf("changed stats decoded wrong: %+v", third)
	}
}

// TestReadWireFrame: the streaming reader returns whole frames from a
// concatenated stream, reports a clean EOF between frames, and
// rejects truncated headers, foreign bytes and oversized lengths.
func TestReadWireFrame(t *testing.T) {
	b := GetWireBuffer()
	defer PutWireBuffer(b)
	var stream bytes.Buffer
	b.EncodeAck()
	ack := append([]byte(nil), b.Bytes()...)
	stream.Write(ack)
	b.EncodeError(400, "nope")
	errMsg := append([]byte(nil), b.Bytes()...)
	stream.Write(errMsg)

	var scratch []byte
	f1, err := ReadWireFrame(&stream, 1<<20, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1, ack) {
		t.Fatal("first frame mismatch")
	}
	f2, err := ReadWireFrame(&stream, 1<<20, f1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f2, errMsg) {
		t.Fatal("second frame mismatch")
	}
	if _, err := ReadWireFrame(&stream, 1<<20, f2); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}

	// A header cut mid-way is not a clean EOF.
	if _, err := ReadWireFrame(bytes.NewReader(ack[:10]), 1<<20, nil); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated header: %v", err)
	}
	// Garbage where the magic should be.
	if _, err := ReadWireFrame(bytes.NewReader([]byte("GET /node/wire HTTP/1.1\r\n\r\n padding padding padding")), 1<<20, nil); err == nil {
		t.Fatal("foreign bytes accepted as a frame")
	}
	// A declared payload above the cap is refused before any payload
	// read — the allocation-bomb guard.
	big := append([]byte(nil), ack...)
	big[8], big[9], big[10], big[11] = 0xff, 0xff, 0xff, 0x7f
	if _, err := ReadWireFrame(bytes.NewReader(big), 1<<10, nil); err == nil {
		t.Fatal("oversized declared length accepted")
	}
}

// TestWireResultsDelta: oid runs that stress the signed delta paths —
// ascending, descending, huge jumps — survive bit-exact.
func TestWireResultsDelta(t *testing.T) {
	cases := [][]ir.Result{
		{{Doc: 1, Score: 1}, {Doc: 2, Score: 0.5}, {Doc: 3, Score: 0.25}},
		{{Doc: 3, Score: 1}, {Doc: 2, Score: 0.5}, {Doc: 1, Score: 0.25}},
		{{Doc: bat.OID(math.MaxUint32), Score: 1}, {Doc: 1, Score: 0.5}, {Doc: bat.OID(math.MaxUint32) - 1, Score: 0.1}},
	}
	b := GetWireBuffer()
	defer PutWireBuffer(b)
	for i, rs := range cases {
		b.EncodeTopNResponse(rs)
		got, err := DecodeTopNResponse(b.Bytes())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("case %d: %+v, want %+v", i, got, rs)
		}
	}
}

// FuzzWireDecode: no input, however mangled, may panic or decode
// partially — every decoder either succeeds on a well-formed frame or
// returns an error.
func FuzzWireDecode(f *testing.F) {
	b := GetWireBuffer()
	b.EncodeTopNRequest("champion ace", 10, wireTestStats())
	f.Add(append([]byte(nil), b.Bytes()...))
	b.EncodeTopNResponse(wireTestResults())
	f.Add(append([]byte(nil), b.Bytes()...))
	b.EncodeAddBatchRequest([]Op{{Doc: 1, Text: "t"}})
	f.Add(append([]byte(nil), b.Bytes()...))
	b.EncodeAck()
	f.Add(append([]byte(nil), b.Bytes()...))
	PutWireBuffer(b)
	wrap := func(id string, inner []byte) []byte {
		return encodeWire(func(b *WireBuffer) { b.EncodeTraced(id, inner) })
	}
	topn := encodeWire(func(b *WireBuffer) { b.EncodeTopNRequest("champion ace", 10, wireTestStats()) })
	f.Add(wrap("0123456789abcdef", topn))
	f.Add(wrap("r", encodeWire(func(b *WireBuffer) { b.EncodeStatsRequest() })))
	f.Add(wrap("r", wrap("r", topn)))
	f.Add([]byte("DLWIRE"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var cache WireStatsCache
		DecodeWire(data)
		DecodeTopNRequest(data, &cache)
		DecodeSearchRequest(data, &cache)
		DecodeTopNResponse(data)
		DecodeSearchResponse(data)
		DecodeAddBatchRequest(data)
		DecodeStatsRequest(data)
		DecodeStatsResponse(data)
		DecodeAck(data)
		if id, inner, err := DecodeTraced(data); err == nil {
			if id == "" || !WirePeekKind(inner).isRequest() {
				t.Fatalf("envelope accepted with id %q around kind %#x", id, WirePeekKind(inner))
			}
			DecodeTopNRequest(inner, &cache)
			DecodeSearchRequest(inner, &cache)
		}
		if kind, payload, err := DecodeWire(data); err == nil && kind == WireError {
			DecodeErrorPayload(payload)
		}
		ReadWireFrame(bytes.NewReader(data), 1<<16, nil)
	})
}
