package ir

import (
	"slices"
	"unicode"

	"dlsearch/internal/bat"
)

// Stats carries collection-wide term statistics keyed by stemmed term.
// In the distributed setting the central DBMS aggregates the local
// statistics of every node and ships them with the query, so each node
// computes exactly the scores a single global index would — this is
// what makes the per-document distribution transparent to the ranking.
//
// Scoring a query reads DF only for the query's own stems (plus
// TotalDF and Docs), so the statistics shipped with a query need not
// cover the whole vocabulary: ForQuery projects them onto the query,
// and scoring with the projection is bit-identical to scoring with
// the full statistics.
type Stats struct {
	DF      map[string]int
	TotalDF int
	Docs    int
}

// StatsLocal extracts this index's local term statistics.
func (ix *Index) StatsLocal() Stats {
	st := Stats{DF: make(map[string]int, len(ix.termID)), TotalDF: ix.totalDF, Docs: ix.DocCount()}
	for term, id := range ix.termID {
		st.DF[term] = ix.df[id]
	}
	return st
}

// MergeStats sums local statistics into global statistics.
func MergeStats(locals ...Stats) Stats {
	g := Stats{DF: make(map[string]int)}
	for _, l := range locals {
		for t, df := range l.DF {
			g.DF[t] += df
		}
		g.TotalDF += l.TotalDF
		g.Docs += l.Docs
	}
	return g
}

// ForQuery projects st onto the query's stems: TotalDF and Docs are
// kept, and DF keeps only the entries of the query's stems (after the
// same tokenize/stop/stem pipeline Terms applies) that st holds. A
// stem st lacks stays absent, so every DF lookup scoring makes for the
// query reads the same value from the projection as from st. The
// returned DF is a fresh map, never nil.
//
// ForQuery runs once per distributed search, so it walks the query
// through Terms' pipeline in stack scratch rather than calling Terms:
// a projection allocates one string holding the kept stems, plus the
// map.
func (st Stats) ForQuery(query string) Stats {
	var tokArr, keyArr [128]byte
	var endArr [16]int
	tok, keys, ends := tokArr[:0], keyArr[:0], endArr[:0]
	keep := func() {
		if len(tok) > 0 && !stopWords[string(tok)] {
			s := stemBytes(tok)
			if _, ok := st.DF[string(s)]; ok {
				keys = append(keys, s...)
				ends = append(ends, len(keys))
			}
		}
		tok = tok[:0]
	}
	// Per-rune unicode.ToLower is what Tokenize's strings.ToLower does.
	for _, r := range query {
		if r = unicode.ToLower(r); (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			tok = append(tok, byte(r))
		} else {
			keep()
		}
	}
	keep()
	p := Stats{DF: make(map[string]int, len(ends)), TotalDF: st.TotalDF, Docs: st.Docs}
	all, start := string(keys), 0
	for _, end := range ends {
		p.DF[all[start:end]] = st.DF[all[start:end]]
		start = end
	}
	return p
}

// TopNWithStats ranks this node's local documents using the supplied
// global statistics instead of local ones. Combined with Merge this
// yields a distributed ranking identical to a single global index.
//
// TopNWithStats never mutates the index, so after a Freeze any number
// of goroutines may call it concurrently — this is the read path the
// shared-nothing cluster fans out over its nodes.
func (ix *Index) TopNWithStats(query string, n int, global Stats) []Result {
	s := ix.getScorer()
	defer ix.putScorer(s)
	qts := s.qterms[:0]
	for _, term := range Terms(query) {
		id, ok := ix.termID[term]
		if !ok || slices.Contains(qts, id) {
			continue
		}
		qts = append(qts, id)
		ix.scoreTerm(s, id, global.DF[term], global.TotalDF, nil)
	}
	s.qterms = qts
	return s.selectTopN(ix.docIDs, n)
}

// TopNWithStatsTerms is TopNWithStats over a pre-resolved query: the
// parallel stem/oid slices ResolveQuery returns. The stems key the
// global DF lookups; the oids address the local posting lists. This is
// the cached hot path of the node server — the same query string no
// longer re-tokenizes and re-stems on every request.
func (ix *Index) TopNWithStatsTerms(stems []string, terms []bat.OID, n int, global Stats) []Result {
	s := ix.getScorer()
	defer ix.putScorer(s)
	for i, id := range terms {
		ix.scoreTerm(s, id, global.DF[stems[i]], global.TotalDF, nil)
	}
	return s.selectTopN(ix.docIDs, n)
}
