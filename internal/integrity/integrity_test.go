package integrity

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestSumIsContentAddressed(t *testing.T) {
	a, b := Sum([]byte("hello")), Sum([]byte("hello"))
	if a != b {
		t.Error("same content, different sums")
	}
	if len(a) != 64 {
		t.Errorf("sum length %d, want 64 hex chars", len(a))
	}
	if Sum([]byte("hello")) == Sum([]byte("hellp")) {
		t.Error("one-bit-different content collided")
	}
}

func TestLedgerAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lineage.wal")
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	products := []Product{
		{Path: "l2/step001.gio", Bytes: 100, Sum: Sum([]byte("a")), Step: 1, Producer: "sim-step"},
		{Path: "centers/step001.centers", Bytes: 40, Sum: Sum([]byte("b")), Step: 1, Producer: "post-step",
			Inputs: []string{"l2/step001.gio"}},
	}
	for _, p := range products {
		if err := led.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	led.Close()

	led, err = OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if got := led.Products(); len(got) != 2 || got[0].Path != products[0].Path || got[1].Inputs[0] != "l2/step001.gio" {
		t.Fatalf("replayed %+v", got)
	}
	p, ok := led.Lookup("l2/step001.gio")
	if !ok || p.Sum != products[0].Sum {
		t.Fatalf("lookup = %+v, %v", p, ok)
	}
}

func TestLedgerSupersedesInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lineage.wal")
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	led.Append(Product{Path: "a", Sum: Sum([]byte("v1")), Producer: "sim-step"})
	led.Append(Product{Path: "b", Sum: Sum([]byte("x")), Producer: "sim-step"})
	led.Append(Product{Path: "a", Sum: Sum([]byte("v2")), Producer: "sim-step"})
	got := led.Products()
	if len(got) != 2 {
		t.Fatalf("%d products, want 2 (re-commit supersedes)", len(got))
	}
	if got[0].Path != "a" || got[0].Sum != Sum([]byte("v2")) {
		t.Errorf("first product %+v, want superseded a", got[0])
	}
}

// TestLedgerTornTailTruncated opens every byte prefix of a ledger, as
// a crash mid-append can leave it: each opens, reads as the fold of its
// complete records, and is truncated back to the last of them.
func TestLedgerTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lineage.wal")
	led, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	records := []Product{
		{Path: "a", Bytes: 1, Sum: Sum([]byte("a")), Step: 1, Producer: "sim-step"},
		{Path: "b", Bytes: 1, Sum: Sum([]byte("b")), Step: 1, Producer: "sim-step"},
		{Path: "c", Bytes: 2, Sum: Sum([]byte("c")), Step: 1, Producer: "post-step", Inputs: []string{"a"}},
		{Path: "a", Bytes: 2, Sum: Sum([]byte("a2")), Step: 1, Producer: "sim-step", Params: "rerun"},
		{Path: "d", Bytes: 3, Sum: Sum([]byte("d")), Producer: "merge", Inputs: []string{"c", "b"}},
		{Path: "e", Bytes: 4, Sum: Sum([]byte("e")), Producer: "post-step", Inputs: []string{"d"}},
	}
	ends := []int64{0} // ends[k]: file size once k records are written
	for _, p := range records {
		if err := led.Append(p); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, st.Size())
	}
	led.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	torn := filepath.Join(dir, "torn.wal")
	for n := 0; n <= len(data); n++ {
		complete := 0
		for complete+1 < len(ends) && ends[complete+1] <= int64(n) {
			complete++
		}
		if err := os.WriteFile(torn, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		led, err := OpenLedger(torn)
		if err != nil {
			t.Fatalf("prefix %d: %v", n, err)
		}
		want := foldLedger(records[:complete])
		if got := led.Products(); !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix %d: products %+v, want %+v", n, got, want)
		}
		for _, r := range records {
			got, ok := led.Lookup(r.Path)
			i := slices.IndexFunc(want, func(p Product) bool { return p.Path == r.Path })
			if ok != (i >= 0) || ok && !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("prefix %d: Lookup(%s) = %+v, %v", n, r.Path, got, ok)
			}
			if got, want := led.Downstream(r.Path), foldDownstream(want, r.Path); !reflect.DeepEqual(got, want) {
				t.Fatalf("prefix %d: Downstream(%s) = %v, want %v", n, r.Path, got, want)
			}
		}
		led.Close()
		if st, err := os.Stat(torn); err != nil || st.Size() != ends[complete] {
			t.Fatalf("prefix %d: reopened ledger not truncated to %d bytes (%v)", n, ends[complete], err)
		}
	}

	// Appending after truncation lands on a clean boundary.
	if err := os.WriteFile(torn, data[:ends[2]+7], 0o644); err != nil {
		t.Fatal(err)
	}
	if led, err = OpenLedger(torn); err != nil {
		t.Fatal(err)
	}
	if err := led.Append(records[5]); err != nil {
		t.Fatal(err)
	}
	led.Close()
	if led, err = OpenLedger(torn); err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if got := led.Products(); len(got) != 3 || got[2].Path != "e" {
		t.Fatalf("after re-append: %+v", got)
	}
}

// foldLedger is what a ledger holding records means: one product per
// path in first-commit order, each its path's latest record.
func foldLedger(records []Product) []Product {
	var out []Product
	for _, r := range records {
		if i := slices.IndexFunc(out, func(p Product) bool { return p.Path == r.Path }); i >= 0 {
			out[i] = r
		} else {
			out = append(out, r)
		}
	}
	return out
}

// foldDownstream is the transitive closure of products over Inputs from
// path, path excluded, in first-commit order.
func foldDownstream(products []Product, path string) []string {
	tainted := map[string]bool{path: true}
	for changed := true; changed; {
		changed = false
		for _, p := range products {
			if !tainted[p.Path] && slices.ContainsFunc(p.Inputs, func(in string) bool { return tainted[in] }) {
				tainted[p.Path], changed = true, true
			}
		}
	}
	var out []string
	for _, p := range products {
		if p.Path != path && tainted[p.Path] {
			out = append(out, p.Path)
		}
	}
	return out
}

func TestDownstreamClosure(t *testing.T) {
	led, err := OpenLedger(filepath.Join(t.TempDir(), "lineage.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	led.Append(Product{Path: "l2/a", Producer: "sim-step"})
	led.Append(Product{Path: "l2/b", Producer: "sim-step"})
	led.Append(Product{Path: "c/a", Producer: "post-step", Inputs: []string{"l2/a"}})
	led.Append(Product{Path: "c/b", Producer: "post-step", Inputs: []string{"l2/b"}})
	led.Append(Product{Path: "merged", Producer: "merge", Inputs: []string{"c/a", "c/b"}})
	if got := led.Downstream("l2/a"); len(got) != 2 || got[0] != "c/a" || got[1] != "merged" {
		t.Errorf("downstream(l2/a) = %v", got)
	}
	if got := led.Downstream("c/b"); len(got) != 1 || got[0] != "merged" {
		t.Errorf("downstream(c/b) = %v", got)
	}
	if got := led.Downstream("merged"); got != nil {
		t.Errorf("downstream(merged) = %v, want none", got)
	}
}

func TestFlipBitIsLengthPreservingAndSingleBit(t *testing.T) {
	orig := []byte("the quick brown fox")
	for _, frac := range []float64{0, 0.3, 0.99, 1.5, -1} {
		data := append([]byte(nil), orig...)
		FlipBit(data, frac)
		if len(data) != len(orig) {
			t.Fatalf("frac %g changed length", frac)
		}
		diffBits := 0
		for i := range data {
			for b := 0; b < 8; b++ {
				if (data[i]^orig[i])>>b&1 == 1 {
					diffBits++
				}
			}
		}
		if diffBits != 1 {
			t.Errorf("frac %g flipped %d bits, want exactly 1", frac, diffBits)
		}
	}
	FlipBit(nil, 0.5) // must not panic
}

// scrubberFixture builds a dir with one verified product and its ledger.
func scrubberFixture(t *testing.T, content []byte) (*Scrubber, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "prod"), content, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(filepath.Join(dir, "lineage.wal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	led.Append(Product{Path: "prod", Bytes: int64(len(content)), Sum: Sum(content), Producer: "test"})
	return &Scrubber{Dir: dir, Ledger: led}, dir
}

func TestScrubberVerifiesCleanProduct(t *testing.T) {
	scr, _ := scrubberFixture(t, []byte("payload"))
	p, _ := scr.Ledger.Lookup("prod")
	if !scr.CheckRepair(p) {
		t.Fatal("clean product failed verification")
	}
	if scr.Stats.Verified != 1 || scr.Stats.Corruptions != 0 {
		t.Errorf("stats %+v", scr.Stats)
	}
}

func TestScrubberQuarantinesAndRepairs(t *testing.T) {
	content := []byte("payload payload payload")
	scr, dir := scrubberFixture(t, content)
	scr.Rederive = func(p Product) ([]byte, error) { return content, nil }
	if err := CorruptFile(filepath.Join(dir, "prod"), 0.5); err != nil {
		t.Fatal(err)
	}
	p, _ := scr.Ledger.Lookup("prod")
	if !scr.CheckRepair(p) {
		t.Fatal("repairable product not repaired")
	}
	if scr.Stats.Corruptions != 1 || scr.Stats.Quarantined != 1 || scr.Stats.Repaired != 1 {
		t.Errorf("stats %+v", scr.Stats)
	}
	got, err := os.ReadFile(filepath.Join(dir, "prod"))
	if err != nil || string(got) != string(content) {
		t.Fatalf("repaired content %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "prod.quarantine")); !errors.Is(err, os.ErrNotExist) {
		t.Error("quarantine file survived a successful repair")
	}
	events := []string{}
	for _, d := range scr.Decisions() {
		events = append(events, d.Event)
	}
	if want := "corrupt,quarantine,repair"; strings.Join(events, ",") != want {
		t.Errorf("decision events %v, want %s", events, want)
	}
}

func TestScrubberEscalatesAfterTwoFailures(t *testing.T) {
	scr, dir := scrubberFixture(t, []byte("payload"))
	attempts := 0
	scr.Rederive = func(p Product) ([]byte, error) {
		attempts++
		return []byte("wrong bytes"), nil
	}
	var escalated []string
	scr.OnGiveUp = func(p Product) { escalated = append(escalated, p.Path) }
	if err := CorruptFile(filepath.Join(dir, "prod"), 0.1); err != nil {
		t.Fatal(err)
	}
	p, _ := scr.Ledger.Lookup("prod")
	if scr.CheckRepair(p) {
		t.Fatal("unrepairable product reported healthy")
	}
	if attempts != 2 {
		t.Errorf("%d re-derivation attempts, want 2", attempts)
	}
	if scr.Stats.Escalated != 1 || len(escalated) != 1 || escalated[0] != "prod" {
		t.Errorf("escalation: stats %+v, hook %v", scr.Stats, escalated)
	}
	// The corrupt bytes stay parked for forensics.
	if _, err := os.Stat(filepath.Join(dir, "prod.quarantine")); err != nil {
		t.Error("quarantine file missing after give-up")
	}
}

func TestScrubberRepairsCorruptInputFirst(t *testing.T) {
	dir := t.TempDir()
	in, out := []byte("input bytes here"), []byte("derived output bytes")
	if err := os.WriteFile(filepath.Join(dir, "in"), in, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "out"), out, 0o644); err != nil {
		t.Fatal(err)
	}
	led, err := OpenLedger(filepath.Join(dir, "lineage.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	led.Append(Product{Path: "in", Bytes: int64(len(in)), Sum: Sum(in), Producer: "sim-step"})
	led.Append(Product{Path: "out", Bytes: int64(len(out)), Sum: Sum(out), Producer: "merge", Inputs: []string{"in"}})
	scr := &Scrubber{Dir: dir, Ledger: led, Rederive: func(p Product) ([]byte, error) {
		switch p.Path {
		case "in":
			return in, nil
		case "out":
			// The re-derivation consumes the input from disk — if the
			// corrupt input were not repaired first, this would bake the
			// corruption into the "repaired" product.
			data, err := os.ReadFile(filepath.Join(dir, "in"))
			if err != nil {
				return nil, err
			}
			if Sum(data) != Sum(in) {
				return nil, fmt.Errorf("input still corrupt")
			}
			return out, nil
		}
		return nil, fmt.Errorf("unknown %s", p.Path)
	}}
	// Corrupt both the product and its input.
	for _, name := range []string{"in", "out"} {
		if err := CorruptFile(filepath.Join(dir, name), 0.4); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := led.Lookup("out")
	if !scr.CheckRepair(p) {
		t.Fatal("repair with corrupt input failed")
	}
	if scr.Stats.Repaired != 2 || scr.Stats.Escalated != 0 {
		t.Errorf("stats %+v, want input and output both repaired", scr.Stats)
	}
}

func TestSweepNextRoundRobins(t *testing.T) {
	dir := t.TempDir()
	led, err := OpenLedger(filepath.Join(dir, "lineage.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("p%d", i)
		content := []byte(name + " content")
		if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
		led.Append(Product{Path: name, Bytes: int64(len(content)), Sum: Sum(content), Producer: "test"})
	}
	scr := &Scrubber{Dir: dir, Ledger: led}
	scr.SweepNext(2) // p0 p1
	scr.SweepNext(2) // p2 p3
	scr.SweepNext(2) // p4 p0 (wraps)
	if scr.Stats.Verified != 6 {
		t.Errorf("verified %d, want 6 across three wrapped batches", scr.Stats.Verified)
	}
}

func TestDecisionStringIsStable(t *testing.T) {
	d := Decision{T: 1234.5, Path: "l2/step001.gio", Event: "quarantine", Note: "parked"}
	want := "t=1234.5    l2/step001.gio           quarantine   parked"
	if got := d.String(); got != want {
		t.Errorf("decision string %q, want %q", got, want)
	}
}
