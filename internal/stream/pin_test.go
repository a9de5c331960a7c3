package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"adjarray/internal/assoc"
)

// sourcesPerShard returns one source vertex each shard of sv owns.
func sourcesPerShard(sv *Store[float64]) []string {
	srcs := make([]string, sv.Shards())
	for i, left := 0, len(srcs); left > 0; i++ {
		s := fmt.Sprintf("s%03d", i)
		if j := sv.ShardFor(s); srcs[j] == "" {
			srcs[j] = s
			left--
		}
	}
	return srcs
}

// Pin folds the shards whose epochs moved at once, one goroutine each
// past the first. Under concurrent Append, OwnerSnapshot and other Pins,
// every pin holds, shard for shard, the array that shard's own Snapshot
// held at the pinned epoch — taken here from a twin store fed the same
// batches, one Snapshot per shard after every batch. +.* over small
// integers is exact under any grouping, so where the folds fell does not
// matter. A fold that fails is reported by its shard, the lowest-indexed
// one when several fail. Run under -race.
func TestPinFoldsShardsConcurrently(t *testing.T) {
	ops := plusTimes(t)
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(40 + shards)))
			edges := randomEdges(r, 1500, 300, []float64{1, 2, 3})
			var batches [][]Edge[float64]
			for lo := 0; lo < len(edges); {
				hi := min(lo+1+r.Intn(40), len(edges))
				batches = append(batches, edges[lo:hi])
				lo = hi
			}

			// want[i][e] is shard i's adjacency after its e-th sub-batch.
			twin := memStore(t, ops, shards)
			want := make([]map[int]*assoc.Array[float64], shards)
			record := func() {
				for i, p := range twin.parts {
					sn := mustSnap(t, p.v)
					if want[i] == nil {
						want[i] = map[int]*assoc.Array[float64]{}
					}
					want[i][sn.Epoch] = sn.Adjacency
				}
			}
			record()
			for _, b := range batches {
				if err := twin.Append(b); err != nil {
					t.Fatal(err)
				}
				record()
			}

			sv := memStore(t, ops, shards)
			var done atomic.Bool
			var wg sync.WaitGroup
			var mu sync.Mutex
			var pins []StoreSnapshot[float64]
			errc := make(chan error, 4)
			wg.Add(4)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				for _, b := range batches {
					if err := sv.Append(b); err != nil {
						errc <- err
						return
					}
				}
			}()
			for range 2 {
				go func() {
					defer wg.Done()
					for !done.Load() {
						pin, err := sv.Pin()
						if err != nil {
							errc <- err
							return
						}
						mu.Lock()
						pins = append(pins, pin)
						mu.Unlock()
					}
				}()
			}
			go func() {
				defer wg.Done()
				for i := 0; !done.Load(); i++ {
					if _, _, err := sv.OwnerSnapshot(fmt.Sprintf("v%03d", i%300)); err != nil {
						errc <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			last, err := sv.Pin()
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, last)
			// A store pinned only once, at the end, has every shard to fold:
			// the first on the caller's goroutine, every other one aside.
			cold := memStore(t, ops, shards)
			for _, b := range batches {
				if err := cold.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			coldPin, err := cold.Pin()
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, coldPin)
			for _, pin := range pins {
				sum := 0
				for i, sn := range pin.Shards {
					sum += sn.Epoch
					if sn.Epoch != pin.Epochs[i] {
						t.Fatalf("shard %d pinned at %d, the vector says %v", i, sn.Epoch, pin.Epochs)
					}
					if d := assoc.Diff(sn.Adjacency, want[i][sn.Epoch], ops.Equal, nil); d != "" {
						t.Fatalf("shard %d at epoch %d: %s", i, sn.Epoch, d)
					}
				}
				if sum != pin.Epoch {
					t.Fatalf("vector %v sums to %d, the pin says %d", pin.Epochs, sum, pin.Epoch)
				}
			}
			if st := sv.Stats(); st.Pending != 0 || st.Edges != len(edges) {
				t.Fatalf("after the last pin: %d edges, %d pending", st.Edges, st.Pending)
			}
		})
	}

	errFold := errors.New("injected fold failure")
	for _, c := range []struct {
		shards  int
		failing []int
		want    int
	}{
		{2, []int{1}, 1}, {3, []int{1}, 1}, {3, []int{2}, 2}, {3, []int{1, 2}, 1}, {3, []int{0, 2}, 0},
	} {
		t.Run(fmt.Sprintf("shards=%d/failing=%v", c.shards, c.failing), func(t *testing.T) {
			sv := memStore(t, ops, c.shards)
			var batch []Edge[float64]
			for _, src := range sourcesPerShard(sv) {
				batch = append(batch, Edge[float64]{Src: src, Dst: "x"})
			}
			if err := sv.Append(batch); err != nil {
				t.Fatal(err)
			}
			for _, i := range c.failing {
				sv.parts[i].v.failpoint = func(site string) error {
					if site == "fold:start" {
						return errFold
					}
					return nil
				}
			}
			_, err := sv.Pin()
			if prefix := fmt.Sprintf("stream: shard %d: ", c.want); !errors.Is(err, errFold) || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("got %v, want %q…", err, prefix)
			}
			for _, i := range c.failing {
				sv.parts[i].v.failpoint = nil
			}
			pin, err := sv.Pin()
			if err != nil {
				t.Fatalf("once the failure is gone: %v", err)
			}
			for i, sn := range pin.Shards {
				if sn.Adjacency.NNZ() != 1 {
					t.Errorf("shard %d holds %d entries, want its one edge", i, sn.Adjacency.NNZ())
				}
			}
		})
	}
}

// A pin at the vector of the last one folds nothing and starts no
// goroutine: it allocates nothing, up to four shards.
func TestPinAtAnUnchangedVectorAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	ops := plusTimes(t)
	for _, shards := range []int{1, 2, 3, 4} {
		sv := memStore(t, ops, shards)
		if err := sv.Append(randomEdges(rand.New(rand.NewSource(3)), 64, 20, []float64{1})); err != nil {
			t.Fatal(err)
		}
		if _, err := sv.Pin(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := sv.Pin(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d shards: a pin at an unchanged vector allocates %.1f times", shards, allocs)
		}
	}
}
