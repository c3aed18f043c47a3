package ir

import (
	"maps"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dlsearch/internal/bat"
)

// sameBits fails unless got and want are the same ranking with
// bit-identical scores.
func sameBits(t *testing.T, ctx string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

func sameEstimate(t *testing.T, ctx string, got, want QualityEstimate) {
	t.Helper()
	if math.Float64bits(got.CoveredIDF) != math.Float64bits(want.CoveredIDF) ||
		math.Float64bits(got.TotalIDF) != math.Float64bits(want.TotalIDF) ||
		got.FragsUsed != want.FragsUsed || got.FragsTotal != want.FragsTotal {
		t.Fatalf("%s: estimate %+v, want %+v", ctx, got, want)
	}
}

// TestForQueryScoresIdentically is the property the coordinator's
// per-query statistics rest on: for random queries — stop words,
// repeated terms, stems absent from the vocabulary, upper case,
// non-ASCII — scoring with Stats.ForQuery's projection gives results
// and quality estimates bit-identical to scoring with the full
// statistics, on the exact and the budgeted path alike.
func TestForQueryScoresIdentically(t *testing.T) {
	ix := planCorpus(200, 3)
	// The rest of the collection holds vocabulary this partition lacks,
	// so global DF differs from local DF and some query stems exist
	// only globally.
	rest := planCorpus(150, 4)
	rest.Add(bat.OID(1000), "w1", "wimbledon nadal grass wimbledon")
	rest.Add(bat.OID(1001), "w2", "nadal roland garros clay")
	global := MergeStats(ix.StatsLocal(), rest.StatsLocal())
	ix.Freeze()
	ix.EnsureFragments(EvalPlan{Frags: 4})

	words := []string{
		"match", "play", "game", "court", "seles", "hingis", "champion",
		"winner", "serve", "melbourne", "the", "and", "of", "with",
		"wimbledon", "nadal", "nope", "zzyzx", "CHAMPION", "Melbourne",
		"SeLeS", "café", "Ñadal", "größe", "日本", "2001", "serves",
		"playing", "champions",
	}
	seps := []string{" ", "  ", ",", "-", "!", " ... "}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		var sb strings.Builder
		for w, n := 0, rng.Intn(7); w < n; w++ {
			word := words[rng.Intn(len(words))]
			sb.WriteString(word)
			if rng.Intn(4) == 0 { // repeat a term
				sb.WriteString(seps[rng.Intn(len(seps))])
				sb.WriteString(word)
			}
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		q := sb.String()
		proj := global.ForQuery(q)

		if proj.TotalDF != global.TotalDF || proj.Docs != global.Docs {
			t.Fatalf("%q: projection changed TotalDF/Docs: %+v", q, proj)
		}
		terms := Terms(q)
		for stem, df := range proj.DF {
			if gdf, ok := global.DF[stem]; !ok || gdf != df {
				t.Fatalf("%q: projected DF[%q] = %d, global %d (present %v)", q, stem, df, gdf, ok)
			}
		}
		for _, stem := range terms {
			_, inGlobal := global.DF[stem]
			if _, inProj := proj.DF[stem]; inProj != inGlobal {
				t.Fatalf("%q: stem %q in projection = %v, in global = %v", q, stem, inProj, inGlobal)
			}
		}
		if len(proj.DF) > len(terms) {
			t.Fatalf("%q: projection holds %d entries for %d stems", q, len(proj.DF), len(terms))
		}

		sameBits(t, "topn "+q, ix.TopNWithStats(q, 10, proj), ix.TopNWithStats(q, 10, global))
		stems, oids := ix.ResolveQuery(q)
		sameBits(t, "topn terms "+q,
			ix.TopNWithStatsTerms(stems, oids, 10, proj), ix.TopNWithStatsTerms(stems, oids, 10, global))

		plan := EvalPlan{N: 10, Frags: 4, Budget: 1 + rng.Intn(4), MinQuality: []float64{0, 0.5, 0.9}[rng.Intn(3)]}
		gotRes, gotEst := ix.TopNPlanWithStats(q, plan, proj)
		wantRes, wantEst := ix.TopNPlanWithStats(q, plan, global)
		sameBits(t, "plan "+q, gotRes, wantRes)
		sameEstimate(t, "plan "+q, gotEst, wantEst)
		gotRes, gotEst = ix.TopNPlanWithStatsTerms(stems, oids, plan, proj)
		wantRes, wantEst = ix.TopNPlanWithStatsTerms(stems, oids, plan, global)
		sameBits(t, "plan terms "+q, gotRes, wantRes)
		sameEstimate(t, "plan terms "+q, gotEst, wantEst)
	}
}

// TestForQueryMatchesTerms: ForQuery's own tokenize/stop/stem walk
// keeps exactly the stems Terms yields that the statistics hold, for
// random text — case folding that lands on ASCII (the Kelvin sign,
// dotted capital I), invalid UTF-8, digits, stop words, suffixes every
// stemmer step rewrites, tokens longer than its stack scratch, and
// more terms than its scratch holds.
func TestForQueryMatchesTerms(t *testing.T) {
	words := []string{
		"the", "and", "OF", "relational", "conditional", "hopping",
		"happy", "generalization", "electricity", "hopeful", "goodness",
		"adjustment", "controlling", "rolling", "agreed", "ponies",
		"caresses", "sky", "Kelvin", "\u212aelvin", "\u0130stanbul",
		"Stra\u00dfe", "na\u00efve", "\xff\xfeab", "x\xffy", "2001",
		"a1b2", "\u65e5\u672c", strings.Repeat("long", 50),
		strings.Repeat("ab", 70) + "ing",
	}
	seps := []string{" ", "-", "\u00a0", "\t", ".", "\u2014"}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for w, n := 0, rng.Intn(40); w < n; w++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteString(seps[rng.Intn(len(seps))])
		}
		q := sb.String()
		// The statistics hold about half of the query's stems.
		st := Stats{DF: map[string]int{"unrelated": 9}, TotalDF: 100, Docs: 10}
		for j, term := range Terms(q) {
			if j%2 == 0 || rng.Intn(2) == 0 {
				st.DF[term] = 1 + len(term)
			}
		}
		want := map[string]int{}
		for _, term := range Terms(q) {
			if df, ok := st.DF[term]; ok {
				want[term] = df
			}
		}
		got := st.ForQuery(q)
		if !maps.Equal(got.DF, want) || got.DF == nil || got.TotalDF != 100 || got.Docs != 10 {
			t.Fatalf("%q: ForQuery = %+v, want DF %v", q, got, want)
		}
	}
}
