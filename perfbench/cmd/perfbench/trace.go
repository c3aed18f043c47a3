package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one GET /metrics of every process: series name with its
// labels → value, summed over the nodes for node-side series.
type scrape struct {
	coord map[string]float64
	nodes map[string]float64
}

func scrapeCluster(c *cluster) (scrape, error) {
	s := scrape{nodes: map[string]float64{}}
	var err error
	if s.coord, err = scrapeOne(c.coord.addr); err != nil {
		return s, err
	}
	for _, n := range c.nodes {
		m, err := scrapeOne(n.addr)
		if err != nil {
			return s, err
		}
		for k, v := range m {
			s.nodes[k] += v
		}
	}
	return s, nil
}

// scrapeOne parses the Prometheus text exposition of one process.
func scrapeOne(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// delta is after − before for one series.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// histMeanMS is the mean of a seconds histogram over an interval, in
// milliseconds; 0 when it observed nothing.
func histMeanMS(before, after map[string]float64, name, labels string) float64 {
	n := delta(before, after, name+"_count"+labels)
	if n == 0 {
		return 0
	}
	return delta(before, after, name+"_sum"+labels) / n * 1000
}

// spanRecord is one slow-query log line (-slow-query-ms -1 logs every
// query) of a coordinator or node.
type spanRecord struct {
	RequestID string `json:"request_id"`
	Role      string `json:"role"`
	Index     string `json:"index"`
	TookUS    int64  `json:"took_us"`
	Spans     []struct {
		Name    string `json:"name"`
		StartUS int64  `json:"start_us"`
		DurUS   int64  `json:"dur_us"`
	} `json:"spans"`
}

// readSpans parses every slow-query line of a process log, keyed by
// request ID. Lines of other requests and plain log lines are skipped.
func readSpans(path string, into map[string][]spanRecord) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 && line[0] == '{' {
			var rec spanRecord
			if json.Unmarshal(line, &rec) == nil && rec.RequestID != "" {
				into[rec.RequestID] = append(into[rec.RequestID], rec)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// spanMS returns the total duration of the named spans of a record.
func (r *spanRecord) spanMS(name string) float64 {
	us := int64(0)
	for _, s := range r.Spans {
		if s.Name == name {
			us += s.DurUS
		}
	}
	return float64(us) / 1000
}

// coveredMS is the length of the union of the intervals of the spans
// whose name has the prefix, clipped to the parent span: how much of
// the parent its (possibly parallel) children cover.
func (r *spanRecord) coveredMS(parent, childPrefix string) float64 {
	var p0, p1 int64 = -1, -1
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range r.Spans {
		if s.Name == parent {
			p0, p1 = s.StartUS, s.StartUS+s.DurUS
		}
		if strings.HasPrefix(s.Name, childPrefix) {
			ivs = append(ivs, iv{s.StartUS, s.StartUS + s.DurUS})
		}
	}
	if p0 < 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, p0
	for _, v := range ivs {
		a, b := max(v.a, end), min(v.b, p1)
		if b > a {
			covered += b - a
			end = b
		}
	}
	return float64(covered) / 1000
}

// layerTimes is the per-request split of traced requests, one slice
// per component, each ready for a median.
type layerTimes map[string][]float64

func (lt layerTimes) add(name string, v float64) { lt[name] = append(lt[name], v) }

// attribute joins each timed request with its coordinator and node
// records by request ID and splits its client-side latency into
// layers: the coordinator's own spans, the part of the fan-out its
// node RPCs do not cover, the part of the RPCs outside the nodes'
// traced handlers, and the HTTP + JSON time outside the coordinator
// handler.
func attribute(samples []sample, recs map[string][]spanRecord, conceptual bool) layerTimes {
	lt := layerTimes{}
	for _, s := range samples {
		if s.failed {
			continue
		}
		var co *spanRecord
		for i := range recs[s.id] {
			if recs[s.id][i].Role == "coordinator" {
				co = &recs[s.id][i]
			}
		}
		if co == nil {
			continue
		}
		took := float64(co.TookUS) / 1000
		// The nodes' own records of the same request: a search's
		// partitions run in parallel, so the slowest one blocks it; a
		// conceptual query's node calls run one after another.
		nodeTook := 0.0
		for _, r := range recs[s.id] {
			if r.Role != "node" {
				continue
			}
			if t := float64(r.TookUS) / 1000; conceptual {
				nodeTook += t
			} else {
				nodeTook = max(nodeTook, t)
			}
		}
		lt.add("node.traced_ms", nodeTook)
		lt.add("e2e", float64(s.latency)/float64(time.Millisecond))
		lt.add("client.http_ms", float64(s.latency)/float64(time.Millisecond)-took)
		if conceptual {
			lt.add("server.query_parse_ms", co.spanMS("parse"))
			lt.add("server.query_execute_ms", co.spanMS("execute"))
			lt.add("server.query_self_ms", took-co.spanMS("parse")-co.spanMS("execute"))
			continue
		}
		parse, stats, fan, merge := co.spanMS("parse"), co.spanMS("stats"), co.spanMS("fanout"), co.spanMS("merge")
		lt.add("server.search_parse_ms", parse)
		lt.add("dist.stats_ms", stats)
		lt.add("dist.fanout_ms", fan)
		rpc := co.coveredMS("fanout", "rpc:")
		lt.add("dist.fanout_self_ms", fan-rpc)
		lt.add("dist.rpc_wire_ms", rpc-nodeTook)
		lt.add("dist.merge_ms", merge)
		lt.add("server.search_self_ms", took-parse-stats-fan-merge)
	}
	return lt
}
