package dparallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// backends under test: every primitive must agree with the Serial reference.
func testBackends() []Backend {
	return []Backend{
		Serial{},
		Parallel{NumWorkers: 1},
		Parallel{NumWorkers: 4, MinChunk: 8},
		Parallel{NumWorkers: 16, MinChunk: 1},
	}
}

func TestBackendNames(t *testing.T) {
	if (Serial{}).Name() != "serial" {
		t.Errorf("Serial.Name() = %q", Serial{}.Name())
	}
	if got := (Parallel{NumWorkers: 3}).Name(); got != "parallel(3)" {
		t.Errorf("Parallel.Name() = %q", got)
	}
}

func TestBackendWorkers(t *testing.T) {
	if (Parallel{NumWorkers: 7}).workers() != 7 {
		t.Error("Parallel{7} should report 7 workers")
	}
	if (Parallel{}).workers() < 1 {
		t.Error("default Parallel should report >= 1 worker")
	}
}

func TestForRangeCoversAllIndices(t *testing.T) {
	for _, b := range testBackends() {
		for _, n := range []int{0, 1, 2, 7, 100, 1025} {
			seen := make([]int32, n)
			b.ForRange(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("%s n=%d: index %d covered %d times", b.Name(), n, i, c)
				}
			}
		}
	}
}

// withProcs runs f at each GOMAXPROCS setting, restoring the old one.
func withProcs(t *testing.T, f func(t *testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		f(t)
	}
}

// Nested calls, and calls from several goroutines at once, find the workers
// busy: they must run the chunks themselves rather than wait, and still
// cover every index exactly once.
func TestForRangeNestedAndConcurrentTerminate(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		const outer, inner = 8, 64
		par := Parallel{MinChunk: 1}
		cover := func(seen []atomic.Int32) {
			par.ForRange(outer, func(lo, hi int) {
				for o := lo; o < hi; o++ {
					par.ForRange(inner, func(l, h int) {
						for i := l; i < h; i++ {
							seen[o*inner+i].Add(1)
						}
					})
				}
			})
		}
		done := make(chan []atomic.Int32, 5)
		go func() {
			seen := make([]atomic.Int32, outer*inner)
			cover(seen)
			done <- seen
		}()
		for g := 0; g < 4; g++ {
			go func() {
				seen := make([]atomic.Int32, outer*inner)
				par.ForRange(outer*inner, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
				})
				done <- seen
			}()
		}
		for g := 0; g < 5; g++ {
			select {
			case seen := <-done:
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("GOMAXPROCS %d: index %d covered %d times", runtime.GOMAXPROCS(0), i, c)
					}
				}
			case <-time.After(20 * time.Second):
				t.Fatalf("GOMAXPROCS %d: ForRange did not return", runtime.GOMAXPROCS(0))
			}
		}
	})
}

func TestForRangeAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var sum [2]atomic.Int64
	fn := func(lo, hi int) { sum[lo/500].Add(int64(hi - lo)) }
	par := Parallel{NumWorkers: 2, MinChunk: 1}
	if allocs := testing.AllocsPerRun(200, func() { par.ForRange(1000, fn) }); allocs != 0 {
		t.Errorf("ForRange allocates %v times per call, want 0", allocs)
	}
	if got := sum[0].Load() + sum[1].Load(); got != 201*1000 {
		t.Errorf("covered %d indices over 201 calls, want %d", got, 201*1000)
	}
}

func TestForRangeWritesEveryElement(t *testing.T) {
	for _, b := range testBackends() {
		out := make([]float64, 999)
		b.ForRange(len(out), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i * i)
			}
		})
		for i, v := range out {
			if v != float64(i*i) {
				t.Fatalf("%s: out[%d] = %v", b.Name(), i, v)
			}
		}
	}
}

// squares is a Runner receiver: each pass writes its own out.
type squares struct {
	par Runner[squares]
	out []int
}

func (s *squares) fill(lo, hi int) {
	for i := lo; i < hi; i++ {
		s.out[i] = i * i
	}
}

func TestRunnerRebindsCopiedReceiver(t *testing.T) {
	par := Parallel{NumWorkers: 3, MinChunk: 1}
	a := &squares{out: make([]int, 10)}
	a.par.Run(par, a, len(a.out), (*squares).fill)
	b := *a
	b.out = make([]int, 20)
	b.par.Run(par, &b, len(b.out), (*squares).fill)
	for i, v := range b.out {
		if v != i*i {
			t.Fatalf("copy: out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if len(a.out) != 10 || a.out[9] != 81 {
		t.Fatalf("original changed: %v", a.out)
	}
}

func TestMinIndex(t *testing.T) {
	vals := []float64{5, 3, 8, 3, 9, 1, 1, 7}
	for _, b := range testBackends() {
		idx, v := MinIndex(b, len(vals), func(i int) float64 { return vals[i] })
		if idx != 5 || v != 1 {
			t.Errorf("%s: MinIndex = (%d, %v), want (5, 1)", b.Name(), idx, v)
		}
	}
}

func TestMinIndexEmpty(t *testing.T) {
	idx, v := MinIndex(Parallel{}, 0, func(int) float64 { return 0 })
	if idx != -1 || !math.IsInf(v, 1) {
		t.Errorf("empty MinIndex = (%d, %v), want (-1, +Inf)", idx, v)
	}
}

func TestMinIndexTieBreaksToSmallestIndex(t *testing.T) {
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = 1
	}
	vals[100] = 0
	vals[2000] = 0
	for _, b := range testBackends() {
		idx, _ := MinIndex(b, len(vals), func(i int) float64 { return vals[i] })
		if idx != 100 {
			t.Errorf("%s: tie broke to %d, want 100", b.Name(), idx)
		}
	}
}

// A chunk that opens with a NaN must still find the numbers after it.
func TestMinIndexNaNOpeningChunk(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		vals []float64
		want int
	}{
		{[]float64{5, 1, nan, 0.5}, 3},
		{[]float64{nan, 2, nan, 3}, 1},
		{[]float64{nan, nan, nan}, 0},
	} {
		for _, b := range []Backend{Serial{}, Parallel{NumWorkers: 2, MinChunk: 1}, Parallel{NumWorkers: 4, MinChunk: 1}} {
			if idx, _ := MinIndex(b, len(c.vals), func(i int) float64 { return c.vals[i] }); idx != c.want {
				t.Errorf("%s on %v: index %d, want %d", b.Name(), c.vals, idx, c.want)
			}
		}
	}
}

// Property: for arbitrary inputs with NaNs mixed in, MinIndex at 1, 2, 3
// and 7 workers agrees with the serial reference, index and value bits.
func TestPropertyParallelMatchesSerial(t *testing.T) {
	f := func(vals []float64, nans []uint8) bool {
		for _, p := range nans {
			if len(vals) > 0 && p%2 == 0 {
				vals[int(p)%len(vals)] = math.NaN()
			}
		}
		get := func(i int) float64 { return vals[i] }
		wantIdx, wantVal := MinIndex(Serial{}, len(vals), get)
		for _, w := range []int{1, 2, 3, 7} {
			idx, val := MinIndex(Parallel{NumWorkers: w, MinChunk: 1}, len(vals), get)
			if idx != wantIdx || math.Float64bits(val) != math.Float64bits(wantVal) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
