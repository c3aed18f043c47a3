package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dlsearch/perfbench/workload"
)

// newClient returns an HTTP client that holds at most one connection,
// so each benchmark connection is one client.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// searchResponse is the part of the /search answer the benchmark reads.
type searchResponse struct {
	Results []struct {
		Doc   uint64  `json:"doc"`
		Score float64 `json:"score"`
	} `json:"results"`
	Complete bool `json:"complete"`
}

// queryResponse is the part of the /query answer the benchmark reads.
type queryResponse struct {
	Columns []string `json:"columns"`
	Rows    []struct {
		Values []string `json:"values"`
		Score  float64  `json:"score"`
	} `json:"rows"`
	Complete bool `json:"complete"`
}

// post sends one JSON request tagged with a request ID and decodes the
// 200 answer into out.
func post(c *http.Client, url, reqID string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-DL-Request", reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// search runs one exact top-N /search and checks it is complete.
func search(c *http.Client, addr, reqID, q string) (*searchResponse, error) {
	var sr searchResponse
	if err := post(c, "http://"+addr+"/search", reqID, map[string]any{"query": q, "n": workload.TopN}, &sr); err != nil {
		return nil, err
	}
	if !sr.Complete {
		return nil, fmt.Errorf("search %q: complete=false", q)
	}
	return &sr, nil
}

// conceptQuery runs one /query and checks it is complete.
func conceptQuery(c *http.Client, addr, reqID, q string) (*queryResponse, error) {
	var qr queryResponse
	if err := post(c, "http://"+addr+"/query", reqID, map[string]any{"query": q}, &qr); err != nil {
		return nil, err
	}
	if !qr.Complete {
		return nil, fmt.Errorf("query complete=false")
	}
	return &qr, nil
}

// sameSearch reports whether an answer is bit-identical to the
// reference: the same doc ids with the same float64 scores.
func sameSearch(sr *searchResponse, ref workload.SearchAnswer) error {
	if len(sr.Results) != len(ref.Docs) {
		return fmt.Errorf("search %q: %d results, reference has %d", ref.Query, len(sr.Results), len(ref.Docs))
	}
	for i, r := range sr.Results {
		if r.Doc != ref.Docs[i] || r.Score != ref.Scores[i] {
			return fmt.Errorf("search %q rank %d: doc %d score %v, reference doc %d score %v",
				ref.Query, i, r.Doc, r.Score, ref.Docs[i], ref.Scores[i])
		}
	}
	return nil
}

// sameQuery reports whether a /query answer equals the reference rows
// and scores exactly.
func sameQuery(qr *queryResponse, ref workload.QueryAnswer) error {
	if fmt.Sprint(qr.Columns) != fmt.Sprint(ref.Columns) {
		return fmt.Errorf("query %q: columns %v, reference %v", ref.Query, qr.Columns, ref.Columns)
	}
	if len(qr.Rows) != len(ref.Values) {
		return fmt.Errorf("query %q: %d rows, reference has %d", ref.Query, len(qr.Rows), len(ref.Values))
	}
	for i, row := range qr.Rows {
		if fmt.Sprint(row.Values) != fmt.Sprint(ref.Values[i]) || row.Score != ref.Scores[i] {
			return fmt.Errorf("query %q row %d: %v %v, reference %v %v",
				ref.Query, i, row.Values, row.Score, ref.Values[i], ref.Scores[i])
		}
	}
	return nil
}

// streamSummary is the final line of an /add/stream answer.
type streamSummary struct {
	Summary   bool `json:"summary"`
	Lines     int  `json:"lines"`
	Committed int  `json:"committed"`
	Degraded  int  `json:"degraded"`
	Failed    int  `json:"failed"`
	Errors    int  `json:"errors"`
}

// stream POSTs an NDJSON body to /add/stream and returns the summary
// line. It fails unless every line was committed cleanly.
func stream(addr string, body []byte) (streamSummary, error) {
	var sum streamSummary
	c := newClient()
	c.Timeout = 10 * time.Minute
	defer c.CloseIdleConnections()
	resp, err := c.Post("http://"+addr+"/add/stream", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("/add/stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last []byte
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	if err := json.Unmarshal(last, &sum); err != nil || !sum.Summary {
		return sum, fmt.Errorf("/add/stream: no summary line (last line %q)", last)
	}
	if sum.Committed != sum.Lines || sum.Errors+sum.Failed+sum.Degraded != 0 {
		return sum, fmt.Errorf("/add/stream: %+v, want every line committed", sum)
	}
	return sum, nil
}

// sample is one timed request of a timed phase.
type sample struct {
	id      string
	start   time.Time // when it was sent (or due, in an open loop)
	latency time.Duration
	failed  bool
}

// closedLoop runs clients goroutines, each on its own connection,
// sending do(i) for consecutive i of a shared sequence until the
// deadline. do returns an error for a failed request.
func closedLoop(clients int, d time.Duration, do func(c *http.Client, id string, i int) error) []sample {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		samples  []sample
		wg       sync.WaitGroup
		deadline = time.Now().Add(d)
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var local []sample
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				id := fmt.Sprintf("pb-%d", i)
				t := time.Now()
				err := do(c, id, i)
				local = append(local, sample{id: id, start: t, latency: time.Since(t), failed: err != nil})
				if err != nil {
					fmt.Printf("request %s failed: %v\n", id, err)
				}
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}

// openLoop sends do(i) on one connection at a fixed rate until stop is
// closed. Each request is timed from when it was due, so a stall also
// counts against the requests queued behind it. It returns the
// samples and how late the generator ran at most.
func openLoop(rate float64, stop <-chan struct{}, do func(c *http.Client, id string, i int) error) ([]sample, time.Duration) {
	c := newClient()
	defer c.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	var samples []sample
	var maxLag time.Duration
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return samples, maxLag
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return samples, maxLag
			default:
			}
			if -wait > maxLag {
				maxLag = -wait
			}
		}
		id := fmt.Sprintf("probe-%d", i)
		err := do(c, id, i)
		samples = append(samples, sample{id: id, start: due, latency: time.Since(due), failed: err != nil})
		if err != nil {
			fmt.Printf("probe %s failed: %v\n", id, err)
		}
	}
}
