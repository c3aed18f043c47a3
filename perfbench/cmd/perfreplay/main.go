// Command perfreplay is the in-process half of the dlserve benchmark.
// It is the only part of the benchmark that imports the program's
// internal packages, so an internal API change can break this binary
// but never the end-to-end runner.
//
// For one workload and seed it prints, as one JSON object:
//
//   - the reference answers the runner's correctness gates compare
//     with: sampled /search answers from one ir.Index over the whole
//     corpus, sampled /query answers from one single-process
//     core.Engine fed the same stream;
//
//   - workload properties that need the program's analyzer (distinct
//     stems, mean document length, encoded global-stats bytes);
//
//   - with -layers, the per-layer replays: each layer's public
//     functions timed over the workload's own inputs.
//
//     perfreplay -workload search -seed 1 [-layers -queries 2000] [-smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dlsearch/internal/bat"
	"dlsearch/internal/core"
	"dlsearch/internal/ir"
	"dlsearch/internal/persist"
	"dlsearch/internal/query"
	"dlsearch/internal/site"
	"dlsearch/internal/webspace"

	"dlsearch/perfbench/workload"
)

func main() {
	wl := flag.String("workload", "", "search, query or ingest")
	seed := flag.Int64("seed", 1, "input seed")
	layers := flag.Bool("layers", false, "also run the per-layer replays")
	queries := flag.Int("queries", 2000, "length of the replayed request stream")
	smoke := flag.Bool("smoke", false, "use the self-test's tiny inputs")
	flag.Parse()
	set := workload.New(*seed, workload.SizesFor(*smoke))
	out := workload.Reference{Layers: map[string]float64{}}
	var err error
	switch *wl {
	case "search":
		err = replayIR(set, set.SearchCorpus(), *queries, *layers, &out)
	case "ingest":
		err = replayIR(set, set.IngestCorpus(), *queries, *layers, &out)
	case "query":
		err = replayQuery(set, *queries, *layers, &out)
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfreplay:", err)
		os.Exit(1)
	}
	if !*layers {
		out.Layers = nil
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfreplay:", err)
		os.Exit(1)
	}
}

// replayIR builds the reference index over an IR corpus, answers the
// sampled /search queries and, with layers, times the analyzer, index,
// codec and ranking-cache layers over the corpus and query stream.
func replayIR(set *workload.Set, docs []workload.Doc, queries int, layers bool, out *workload.Reference) error {
	// The analyzer alone, over a fixed prefix of the corpus.
	analyzed := docs[:min(len(docs), 5000)]
	start := time.Now()
	terms := 0
	for _, d := range analyzed {
		terms += len(ir.Terms(d.Text))
	}
	termsDur := time.Since(start)
	ix := ir.NewIndex()
	start = time.Now()
	for _, d := range docs {
		ix.Add(bat.OID(d.ID), "", d.Text)
	}
	ix.Freeze()
	addDur := time.Since(start)

	pool := set.QueryPool()
	for _, q := range workload.Samples(pool, set.Sizes) {
		res := ix.TopN(q, workload.TopN)
		a := workload.SearchAnswer{Query: q}
		for _, r := range res {
			a.Docs = append(a.Docs, uint64(r.Doc))
			a.Scores = append(a.Scores, r.Score)
		}
		out.Search = append(out.Search, a)
	}
	global := ix.StatsLocal()
	wb := persist.GetWireBuffer()
	wb.EncodeTopNRequest(pool[0], workload.TopN, global)
	out.DistinctStems = ix.TermCount()
	out.MeanDocTerms = float64(terms) / float64(len(analyzed))
	out.StatsBlockBytes = wb.Len()
	persist.PutWireBuffer(wb)
	if !layers {
		return nil
	}
	L := out.Layers
	L["ir.terms_us_per_doc"] = us(termsDur) / float64(len(analyzed))
	L["ir.add_us_per_doc"] = us(addDur) / float64(len(docs))
	L["ir.vocabulary_terms"] = float64(ix.TermCount())
	stream := set.QueryStream(pool, queries)
	encode := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		wb := persist.GetWireBuffer()
		t := time.Now()
		wb.EncodeTopNRequest(stream[i%len(stream)], workload.TopN, global)
		encode = append(encode, us(time.Since(t)))
		L["persist.stats_block_bytes"] = float64(wb.Len())
		persist.PutWireBuffer(wb)
	}
	L["persist.encode_topn_us"] = median(encode)
	topn := make([]float64, 0, len(stream))
	qc := core.NewQueryCache(workload.NodeCacheCapacity)
	for _, q := range stream {
		t := time.Now()
		ix.TopNWithStats(q, workload.TopN, global)
		topn = append(topn, us(time.Since(t)))
		if _, hit := qc.Ranking(ix, q, workload.TopN, global); !hit {
			qc.StoreRanking(ix, q, workload.TopN, global, ix.TopNWithStats(q, workload.TopN, global))
		}
	}
	L["ir.topn_us"] = median(topn)
	hits, misses := qc.RankCounters()
	L["core.rank_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	return nil
}

// replayQuery feeds the query workload's stream into one
// single-process engine, exactly as the coordinator applies it, and
// answers the sampled conceptual queries on it. With layers it times
// each line's AddDocument + OIDOf and the parser over the query mix.
func replayQuery(set *workload.Set, queries int, layers bool, out *workload.Reference) error {
	players, articles := set.AusOpen()
	lines := workload.AusOpenStream(players, articles)
	eng, err := core.NewAusOpen(site.Generate(1))
	if err != nil {
		return err
	}
	perLine := make([]float64, 0, len(lines))
	terms, contentDocs := 0, 0
	for _, l := range lines {
		t := time.Now()
		if l.Webspace != nil {
			if err := eng.AddDocument(webDoc(l.Webspace)); err != nil {
				return err
			}
			perLine = append(perLine, us(time.Since(t)))
			continue
		}
		oid, ok := eng.DB.OIDOf(l.Owner)
		if !ok {
			return fmt.Errorf("unknown owner %s", l.Owner)
		}
		perLine = append(perLine, us(time.Since(t)))
		ix := eng.IR[l.Index]
		if ix == nil {
			ix = ir.NewIndex()
			eng.IR[l.Index] = ix
		}
		ix.Add(oid, l.Owner, l.Text)
		terms += len(ir.Terms(l.Text))
		contentDocs++
	}
	eng.DB.Warm()
	pool := set.ConceptPool(players)
	for _, cq := range workload.Samples(pool, set.Sizes) {
		res, err := eng.Query(cq.Text)
		if err != nil {
			return fmt.Errorf("%s: %w", cq.Text, err)
		}
		a := workload.QueryAnswer{Query: cq.Text, Columns: res.Columns}
		for _, row := range res.Rows {
			a.Values = append(a.Values, row.Values)
			a.Scores = append(a.Scores, row.Score)
		}
		out.Query = append(out.Query, a)
	}
	body := eng.IR["Article.body"]
	global := body.StatsLocal()
	wb := persist.GetWireBuffer()
	wb.EncodeTopNRequest("x", workload.TopN, global)
	out.StatsBlockBytes = wb.Len()
	persist.PutWireBuffer(wb)
	out.DistinctStems = eng.IR["Article.body"].TermCount() + eng.IR["Player.history"].TermCount()
	out.MeanDocTerms = float64(terms) / float64(contentDocs)
	if !layers {
		return nil
	}
	L := out.Layers
	tenth := len(perLine) / 10
	first, last := mean(perLine[:tenth]), mean(perLine[len(perLine)-tenth:])
	L["core.add_document_us"] = last
	L["core.add_document_growth"] = last / first
	stream := set.ConceptStream(pool, queries)
	parse := make([]float64, 0, len(stream))
	for _, cq := range stream {
		t := time.Now()
		if _, err := query.Parse(cq.Text); err != nil {
			return err
		}
		parse = append(parse, us(time.Since(t)))
	}
	L["query.parse_us"] = median(parse)
	return nil
}

// webDoc converts the generator's webspace document to the engine's.
func webDoc(d *workload.WebDoc) *webspace.Document {
	doc := &webspace.Document{URL: d.URL}
	for _, o := range d.Objects {
		doc.Objects = append(doc.Objects, &webspace.Object{Class: o.Class, ID: o.ID, Attrs: o.Attrs})
	}
	for _, l := range d.Links {
		doc.Links = append(doc.Links, webspace.Link{Association: l.Association, From: l.From, To: l.To})
	}
	return doc
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
