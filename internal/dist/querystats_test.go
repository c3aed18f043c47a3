package dist

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"

	"dlsearch/internal/bat"
	"dlsearch/internal/ir"
)

// TestQueryStatsFreshAfterAdd: the statistics a search ships are cut
// from the current aggregation. The same search runs before and after
// adds that change its terms' DF, and every answer equals one ir.Index
// over the whole collection — statistics projected from an older
// aggregation would score with the old DF and differ.
func TestQueryStatsFreshAfterAdd(t *testing.T) {
	docs := corpus(300, 5)
	single := ir.NewIndex()
	c := NewCluster(3, nil)
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
		c.Add(bat.OID(i+1), "u", d)
	}
	const q = "champion winner serve"
	check := func(step string) {
		t.Helper()
		want := single.TopN(q, 20)
		sameRanking(t, step+" parallel", c.TopN(q, 20), want)
		sameRanking(t, step+" sequential", c.TopNSequential(q, 20), want)
	}
	check("before adds")
	next := bat.OID(len(docs) + 1)
	for _, text := range []string{
		"champion champion trophy",
		"winner melbourne",
		"champion serve serve volley",
		"unrelated words only",
	} {
		single.Add(next, "u", text)
		c.Add(next, "u", text)
		next++
		check(fmt.Sprintf("after add %d", next-1))
	}
}

// heldStatsNode answers a Stats call with the statistics current when
// the call arrives; once armed, it holds the next such call until
// release is closed — a refresh deterministically overtaken by a
// later one.
type heldStatsNode struct {
	Node
	armed   atomic.Bool
	entered chan struct{} // closed when the held call has read its stats
	release chan struct{}
}

func (n *heldStatsNode) Stats(ctx context.Context) (ir.Stats, error) {
	st, err := n.Node.Stats(ctx)
	if n.armed.CompareAndSwap(true, false) {
		close(n.entered)
		<-n.release
	}
	return st, err
}

// TestStatsRefreshOutOfOrder: refresh A reads the statistics, an Add
// changes a query term's DF, refresh B aggregates the new statistics
// and stores them as fresh, and only then does A finish. A must not
// replace B's aggregation, or every later search would score with the
// pre-Add DF while the cluster believes its statistics are fresh.
func TestStatsRefreshOutOfOrder(t *testing.T) {
	held := &heldStatsNode{Node: NewLocalNode(ir.NewIndex()), entered: make(chan struct{}), release: make(chan struct{})}
	c := NewClusterOf([]Node{held, NewLocalNode(ir.NewIndex())}, nil)
	single := ir.NewIndex()
	ctx := context.Background()
	for i, d := range corpus(100, 7) {
		single.Add(bat.OID(i+1), "u", d)
		if err := c.AddContext(ctx, bat.OID(i+1), "u", d); err != nil {
			t.Fatal(err)
		}
	}

	held.armed.Store(true)
	refreshA := make(chan error, 1)
	go func() {
		_, err := c.GlobalStatsContext(ctx)
		refreshA <- err
	}()
	<-held.entered
	for i, text := range []string{"champion champion trophy", "champion serve"} {
		oid := bat.OID(1000 + i)
		single.Add(oid, "u", text)
		if err := c.AddContext(ctx, oid, "u", text); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GlobalStatsContext(ctx); err != nil { // refresh B
		t.Fatal(err)
	}
	close(held.release)
	if err := <-refreshA; err != nil {
		t.Fatal(err)
	}

	got, err := c.GlobalStatsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := single.StatsLocal()
	if got.Docs != want.Docs || got.TotalDF != want.TotalDF || !maps.Equal(got.DF, want.DF) {
		t.Fatalf("after the overtaken refresh finished: docs=%d total_df=%d df[champion]=%d, want docs=%d total_df=%d df[champion]=%d",
			got.Docs, got.TotalDF, got.DF["champion"], want.Docs, want.TotalDF, want.DF["champion"])
	}
	const q = "champion trophy serve"
	sameRanking(t, "search after the overtaken refresh", c.TopN(q, 20), single.TopN(q, 20))
}

// TestQueryStatsRacingAdds hammers searches against concurrent adds
// (run it under -race): once the adds stop, every query answers
// exactly like one ir.Index over the whole collection, so no
// aggregation from a racing refresh survived.
func TestQueryStatsRacingAdds(t *testing.T) {
	docs := corpus(400, 6)
	single := ir.NewIndex()
	for i, d := range docs {
		single.Add(bat.OID(i+1), "u", d)
	}
	c := NewCluster(3, nil)
	for i, d := range docs[:100] {
		c.Add(bat.OID(i+1), "u", d)
	}
	queries := []string{"champion winner serve", "seles", "melbourne trophy match", "ace volley"}
	var wg sync.WaitGroup
	var searches atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(g+i)%len(queries)]
				if _, err := c.SearchPlan(context.Background(), q, ir.EvalPlan{N: 10}); err != nil {
					t.Errorf("search %q: %v", q, err)
					return
				}
				searches.Add(1)
				if i%3 == 0 {
					c.TopNSequential(q, 10)
				}
			}
		}(g)
	}
	var adders sync.WaitGroup
	for a := 0; a < 2; a++ {
		adders.Add(1)
		go func(a int) {
			defer adders.Done()
			for i := 100 + a; i < len(docs); i += 2 {
				c.Add(bat.OID(i+1), "u", docs[i])
			}
		}(a)
	}
	adders.Wait()
	close(stop)
	wg.Wait()
	t.Logf("%d searches raced %d adds", searches.Load(), len(docs)-100)
	for _, q := range queries {
		want := single.TopN(q, 10)
		sameRanking(t, q+" parallel", c.TopN(q, 10), want)
		sameRanking(t, q+" sequential", c.TopNSequential(q, 10), want)
	}
}
