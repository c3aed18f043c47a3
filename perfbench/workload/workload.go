// Package workload generates the benchmark's seeded inputs: the Zipf
// corpus and query stream of the search and ingest workloads, and the
// AusOpen webspace stream and conceptual query mix of the query
// workload. The same seed always gives the same inputs. It imports only
// the standard library, so the end-to-end runner and the layer replay
// share one generator without the runner depending on the program's
// internal packages.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Sizes fixes the input sizes of one run. Full is the benchmark's
// setting; Smoke is the tiny corpus the self-test uses.
type Sizes struct {
	Vocabulary  int // distinct surface words the generator draws from
	SearchDocs  int // documents of the search corpus
	IngestDocs  int // documents streamed by the ingest workload
	DocWords    int // mean words per IR document
	QueryPool   int // distinct /search queries
	Players     int // AusOpen players of the query workload
	Articles    int // AusOpen articles of the query workload
	ConceptPool int // distinct terms per conceptual query shape
	Samples     int // answers checked against the reference per gate
}

// Full is the benchmark's input size.
var Full = Sizes{
	Vocabulary:  16000,
	SearchDocs:  20000,
	IngestDocs:  80000,
	DocWords:    60,
	QueryPool:   16 * NodeCacheCapacity,
	Players:     800,
	Articles:    800,
	ConceptPool: 80, // 3 shapes × 80 = 240 queries, within one node cache
	Samples:     24,
}

// SizesFor returns the self-test's sizes when smoke is set, else Full.
func SizesFor(smoke bool) Sizes {
	if smoke {
		return Smoke
	}
	return Full
}

// Smoke is the self-test's tiny input size.
var Smoke = Sizes{
	Vocabulary:  2000,
	SearchDocs:  600,
	IngestDocs:  1500,
	DocWords:    30,
	QueryPool:   64,
	Players:     60,
	Articles:    60,
	ConceptPool: 8,
	Samples:     6,
}

// NodeCacheCapacity is dlserve's default per-node ranking-cache size
// (the -cache flag's default); the query pool is sized against it.
const NodeCacheCapacity = 256

// ZipfS is the exponent of the corpus's word-frequency distribution.
const ZipfS = 1.1

// Doc is one IR document of the search and ingest corpora.
type Doc struct {
	ID   uint64
	Text string
}

// StreamLine is one NDJSON line of POST /add/stream, in the wire form
// the coordinator documents.
type StreamLine struct {
	Index    string  `json:"index,omitempty"`
	Doc      uint64  `json:"doc,omitempty"`
	URL      string  `json:"url,omitempty"`
	Owner    string  `json:"owner,omitempty"`
	Text     string  `json:"text,omitempty"`
	Webspace *WebDoc `json:"webspace,omitempty"`
}

// WebDoc is a webspace document in the coordinator's JSON form.
type WebDoc struct {
	URL     string
	Objects []WebObject
	Links   []WebLink `json:",omitempty"`
}

// WebObject is one web-object of a WebDoc.
type WebObject struct {
	Class string
	ID    string
	Attrs map[string]string
}

// WebLink is one association instance of a WebDoc.
type WebLink struct {
	Association string
	From        string
	To          string
}

// Player is one generated AusOpen player.
type Player struct {
	ID      string
	Name    string
	Gender  string
	Country string
	Hand    string
	History string
}

// Article is one generated AusOpen article and the players it covers.
type Article struct {
	ID     string
	Title  string
	Body   string
	Covers []string // player ids
}

// Countries are the player countries; with two genders they split the
// players into 2×len(Countries) candidate sets for the restricted
// query shape.
var Countries = []string{"aus", "usa", "fra", "esp", "ger", "ita", "swe", "cze", "arg", "jpn", "rsa", "ned"}

// Set holds every input of one seed at one size.
type Set struct {
	Seed  int64
	Sizes Sizes
	Vocab []string // by Zipf rank: Vocab[0] is the most frequent word
}

// New derives the vocabulary of a seed.
func New(seed int64, sz Sizes) *Set {
	r := rand.New(rand.NewSource(seed))
	return &Set{Seed: seed, Sizes: sz, Vocab: vocabulary(r, sz.Vocabulary)}
}

// syllables build pronounceable pseudo-words; every word ends in a
// consonant-vowel-consonant pattern the stemmer leaves mostly intact.
var (
	onsets = []string{"b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "t", "v", "z", "br", "tr", "kl", "st"}
	nuclei = []string{"a", "e", "i", "o", "u", "ai", "ou"}
	codas  = []string{"k", "m", "n", "p", "t", "x", "rk", "nd"}
)

func vocabulary(r *rand.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var sb strings.Builder
		syl := 2 + r.Intn(3)
		for i := 0; i < syl; i++ {
			sb.WriteString(onsets[r.Intn(len(onsets))])
			sb.WriteString(nuclei[r.Intn(len(nuclei))])
		}
		sb.WriteString(codas[r.Intn(len(codas))])
		w := sb.String()
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// stream returns a generator seeded from the set's seed and a salt, so
// each input family draws from its own reproducible sequence.
func (s *Set) stream(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.Seed*1_000_003 + salt))
}

// text draws about mean words Zipf-wise from the vocabulary.
func (s *Set) text(r *rand.Rand, z *rand.Zipf, mean int) string {
	n := mean/2 + r.Intn(mean+1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(s.Vocab[z.Uint64()])
	}
	return sb.String()
}

func (s *Set) zipf(r *rand.Rand) *rand.Zipf {
	return rand.NewZipf(r, ZipfS, 1, uint64(len(s.Vocab)-1))
}

// SearchCorpus is the search workload's corpus, doc ids 1..SearchDocs.
func (s *Set) SearchCorpus() []Doc { return s.docs(1, s.Sizes.SearchDocs) }

// IngestCorpus is the ingest workload's stream, doc ids 1..IngestDocs.
func (s *Set) IngestCorpus() []Doc { return s.docs(2, s.Sizes.IngestDocs) }

func (s *Set) docs(salt int64, n int) []Doc {
	r := s.stream(salt)
	z := s.zipf(r)
	out := make([]Doc, n)
	for i := range out {
		out[i] = Doc{ID: uint64(i + 1), Text: s.text(r, z, s.Sizes.DocWords)}
	}
	return out
}

// midBand is the Zipf-rank band query terms come from: frequent
// enough to match many documents, rare enough to discriminate.
func (s *Set) midBand() (lo, hi int) {
	lo = len(s.Vocab) / 200
	hi = len(s.Vocab) / 8
	return lo, hi
}

// QueryPool is the distinct /search queries: 1–3 mid-frequency terms
// each.
func (s *Set) QueryPool() []string {
	r := s.stream(3)
	lo, hi := s.midBand()
	seen := map[string]bool{}
	var out []string
	for len(out) < s.Sizes.QueryPool {
		k := 1 + r.Intn(3)
		terms := make([]string, k)
		for i := range terms {
			terms[i] = s.Vocab[lo+r.Intn(hi-lo)]
		}
		q := strings.Join(terms, " ")
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// QueryStream draws n queries from the pool Zipf-wise (exponent
// QueryZipfS), so popular queries repeat and the tail does not.
func (s *Set) QueryStream(pool []string, n int) []string {
	r := s.stream(4)
	z := rand.NewZipf(r, QueryZipfS, 8, uint64(len(pool)-1))
	// The pool order is already random, so rank i maps to pool[i].
	out := make([]string, n)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}

// QueryZipfS is the popularity exponent of the /search query stream.
const QueryZipfS = 1.05

// Samples are the requests whose answers the correctness gates compare
// with the reference: the pool's first entries. In the /search stream
// they are also among the most frequently sent; the conceptual pool's
// first entries cover every shape.
func Samples[T any](pool []T, sz Sizes) []T { return pool[:min(sz.Samples, len(pool))] }

// AusOpen generates the query workload's players and articles.
func (s *Set) AusOpen() ([]Player, []Article) {
	r := s.stream(5)
	z := s.zipf(r)
	players := make([]Player, s.Sizes.Players)
	for i := range players {
		p := &players[i]
		p.ID = fmt.Sprintf("bp%d", i)
		p.Name = fmt.Sprintf("%s %s", title(s.Vocab[r.Intn(len(s.Vocab))]), title(s.Vocab[r.Intn(len(s.Vocab))]))
		p.Gender = []string{"female", "male"}[r.Intn(2)]
		p.Country = Countries[r.Intn(len(Countries))]
		p.Hand = "right"
		if r.Intn(5) == 0 {
			p.Hand = "left"
		}
		p.History = s.text(r, z, 40)
	}
	articles := make([]Article, s.Sizes.Articles)
	for i := range articles {
		a := &articles[i]
		a.ID = fmt.Sprintf("ba%d", i)
		a.Title = fmt.Sprintf("%s %s", title(s.Vocab[r.Intn(len(s.Vocab))]), s.Vocab[r.Intn(len(s.Vocab))])
		a.Body = s.text(r, z, 80)
		for k := 1 + r.Intn(3); k > 0; k-- {
			a.Covers = append(a.Covers, players[r.Intn(len(players))].ID)
		}
	}
	return players, articles
}

func title(w string) string { return strings.ToUpper(w[:1]) + w[1:] }

// AusOpenStream renders the players and articles as /add/stream lines
// in the order a crawler would emit them: each object's webspace
// document immediately followed by its owned hypertext.
func AusOpenStream(players []Player, articles []Article) []StreamLine {
	out := make([]StreamLine, 0, 2*(len(players)+len(articles)))
	for i := range players {
		p := &players[i]
		out = append(out,
			StreamLine{Webspace: &WebDoc{
				URL: "players/" + p.ID + ".html",
				Objects: []WebObject{{Class: "Player", ID: p.ID, Attrs: map[string]string{
					"name": p.Name, "gender": p.Gender, "country": p.Country, "hand": p.Hand,
				}}},
			}},
			StreamLine{Index: "Player.history", Owner: "Player:" + p.ID, Text: p.History},
		)
	}
	for i := range articles {
		a := &articles[i]
		doc := &WebDoc{
			URL:     "articles/" + a.ID + ".html",
			Objects: []WebObject{{Class: "Article", ID: a.ID, Attrs: map[string]string{"title": a.Title}}},
		}
		for _, pid := range a.Covers {
			doc.Links = append(doc.Links, WebLink{Association: "Is_covered_in", From: "Player:" + pid, To: "Article:" + a.ID})
		}
		out = append(out,
			StreamLine{Webspace: doc},
			StreamLine{Index: "Article.body", Owner: "Article:" + a.ID, Text: a.Body},
		)
	}
	return out
}

// ConceptQuery is one /query of the query workload's mix.
type ConceptQuery struct {
	Shape string // restricted, unrestricted or join
	Text  string
	// Gender and Country name the restricted shape's candidate set.
	Gender, Country string
}

// ConceptPool is the distinct conceptual queries: ConceptPool terms per
// shape, each restricted query over one gender × country candidate set.
func (s *Set) ConceptPool(players []Player) []ConceptQuery {
	r := s.stream(6)
	// Histories and bodies are short, so conceptual terms come from a
	// more frequent band than /search terms: most candidate sets then
	// hold at least one matching player.
	lo, hi := len(s.Vocab)/8000, len(s.Vocab)/250
	term := func() string { return s.Vocab[lo+r.Intn(hi-lo)] }
	var out []ConceptQuery
	for i := 0; i < s.Sizes.ConceptPool; i++ {
		g := []string{"female", "male"}[r.Intn(2)]
		c := Countries[r.Intn(len(Countries))]
		out = append(out,
			ConceptQuery{Shape: "restricted", Gender: g, Country: c, Text: fmt.Sprintf(
				"SELECT p.name FROM Player p WHERE p.gender = '%s' AND p.country = '%s' AND contains(p.history, '%s') LIMIT 10", g, c, term())},
			ConceptQuery{Shape: "unrestricted", Text: fmt.Sprintf(
				"SELECT a.title FROM Article a WHERE contains(a.body, '%s') LIMIT 10", term())},
			ConceptQuery{Shape: "join", Text: fmt.Sprintf(
				"SELECT p.name, a.title FROM Player p, Article a WHERE p.hand = 'left' AND Is_covered_in(p, a) AND contains(a.body, '%s') LIMIT 10", term())},
		)
	}
	return out
}

// ConceptStream draws n queries uniformly from the pool.
func (s *Set) ConceptStream(pool []ConceptQuery, n int) []ConceptQuery {
	r := s.stream(7)
	out := make([]ConceptQuery, n)
	for i := range out {
		out[i] = pool[r.Intn(len(pool))]
	}
	return out
}

// CandidateSizes returns the restricted shape's candidate-set sizes
// (players per gender × country) over the pool's restricted queries,
// sorted ascending.
func CandidateSizes(players []Player, pool []ConceptQuery) []int {
	count := map[string]int{}
	for _, p := range players {
		count[p.Gender+"/"+p.Country]++
	}
	var out []int
	for _, q := range pool {
		if q.Shape == "restricted" {
			out = append(out, count[q.Gender+"/"+q.Country])
		}
	}
	sort.Ints(out)
	return out
}

// NDJSON encodes lines as an /add/stream body.
func NDJSON(lines []StreamLine) []byte {
	var out []byte
	for i := range lines {
		b, err := json.Marshal(&lines[i])
		if err != nil {
			panic(err) // plain structs of strings always marshal
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out
}

// DocLines renders IR documents as /add/stream lines.
func DocLines(docs []Doc) []StreamLine {
	out := make([]StreamLine, len(docs))
	for i, d := range docs {
		out[i] = StreamLine{Doc: d.ID, Text: d.Text}
	}
	return out
}

// SearchAnswer is one reference /search answer.
type SearchAnswer struct {
	Query  string    `json:"query"`
	Docs   []uint64  `json:"docs"`
	Scores []float64 `json:"scores"`
}

// QueryAnswer is one reference /query answer.
type QueryAnswer struct {
	Query   string     `json:"query"`
	Columns []string   `json:"columns"`
	Values  [][]string `json:"values"`
	Scores  []float64  `json:"scores"`
}

// Reference is what the replay binary prints for one workload and
// seed: the sampled answers, the workload properties that need the
// program's analyzer and, on request, the per-layer replays.
type Reference struct {
	Search          []SearchAnswer `json:"search,omitempty"`
	Query           []QueryAnswer  `json:"query,omitempty"`
	DistinctStems   int            `json:"distinct_stems"`
	MeanDocTerms    float64        `json:"mean_doc_terms"`
	StatsBlockBytes int            `json:"stats_block_bytes"`
	// Layers holds the per-layer replays, when asked for.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// TopN is the n of every /search and the LIMIT of every /query.
const TopN = 10
