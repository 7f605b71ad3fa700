// Package integrity is the end-to-end data-integrity layer of the
// workflow stack: content-addressed product checksums, a crash-consistent
// lineage ledger, and a scrubber that re-verifies products and repairs
// corruption by minimal re-derivation.
//
// The failure machinery of the earlier layers (retries, supervision,
// crash/resume) only sees *loud* failures — a job dies, a write errors, a
// heartbeat stops. Silent corruption is different: a flipped bit in a
// staged Level 2 file or an at-rest catalog changes no length, trips no
// error path, and poisons every downstream product. The defense is
// end-to-end verification (Sum over full content, not per-block CRCs) plus
// provenance: every product's ledger record carries the (step, inputs,
// params) that produced it, so a corrupt product can be re-derived by
// re-running only its producing step instead of the whole campaign.
//
// The ledger is a ckpt journal of lineage records (CRC-guarded JSON lines,
// torn tail truncated on open), so it survives process crashes with the
// same semantics as the main journal: any prefix is a valid recovery
// point. Because product content is a pure function of (seed, step),
// repair converges — a repaired campaign is byte-identical to a fault-free
// one.
package integrity

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/ckpt"
)

// Sum returns the content address of a product: the hex SHA-256 of its
// bytes. Unlike the per-block CRC32s in gio and the journal, this is an
// end-to-end whole-file checksum — the outermost integrity boundary.
func Sum(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// Product is one lineage record: a committed product's content address
// plus the provenance needed to re-derive it from scratch.
type Product struct {
	// Path is the product file, relative to the campaign directory.
	Path string `json:"path"`
	// Bytes and Sum fix the committed content (length and SHA-256).
	Bytes int64  `json:"bytes"`
	Sum   string `json:"sum"`
	// Step is the 1-based timestep that produced the product (0 for
	// products spanning steps, e.g. the merged catalog).
	Step int `json:"step,omitempty"`
	// Producer names the producing stage ("sim-step", "post-step",
	// "merge", ...) — the dispatch key for re-derivation.
	Producer string `json:"producer"`
	// Inputs lists the paths of upstream products this one was derived
	// from (the lineage graph's edges). Empty for products derived
	// directly from the seeded simulation state.
	Inputs []string `json:"inputs,omitempty"`
	// Params records the parameters the producing step ran under.
	Params string `json:"params,omitempty"`
}

// Ledger is the append-only, fsync'd lineage journal: a ckpt journal of
// Products, so a crash mid-append leaves a truncatable torn tail, never a
// half-trusted record. Not safe for concurrent use; the campaign engine
// appends from a single goroutine.
type Ledger struct {
	j        *ckpt.Journal
	products []Product
	index    map[string]int // path -> latest products index
}

// OpenLedger replays the ledger at path (creating it if absent) and
// reopens it for appending, truncating any torn tail.
func OpenLedger(path string) (*Ledger, error) {
	l := &Ledger{index: map[string]int{}}
	j, err := ckpt.OpenLog(path, l.record)
	if err != nil {
		return nil, err
	}
	l.j = j
	return l, nil
}

func (l *Ledger) record(p Product) {
	if i, ok := l.index[p.Path]; ok {
		l.products[i] = p // later records supersede, keeping first-commit order
		return
	}
	l.index[p.Path] = len(l.products)
	l.products = append(l.products, p)
}

// Append durably writes one lineage record: fsync'd before return, so a
// record observed written survives any later crash.
func (l *Ledger) Append(p Product) error {
	if err := l.j.AppendFrame(p); err != nil {
		return err
	}
	l.record(p)
	return nil
}

// Products returns the ledger's products in first-commit order (one entry
// per path; re-commits supersede in place). The returned slice is shared —
// callers must not mutate it.
func (l *Ledger) Products() []Product { return l.products }

// Lookup returns the latest lineage record for a product path.
func (l *Ledger) Lookup(path string) (Product, bool) {
	i, ok := l.index[path]
	if !ok {
		return Product{}, false
	}
	return l.products[i], true
}

// Downstream returns the paths of every product whose lineage
// (transitively) includes path — the set a corrupt product could have
// poisoned, in first-commit order. path itself is excluded.
func (l *Ledger) Downstream(path string) []string {
	tainted := map[string]bool{path: true}
	var out []string
	// Products only ever reference earlier-committed inputs, so one pass
	// in commit order reaches the full transitive closure.
	for _, p := range l.products {
		if tainted[p.Path] {
			continue
		}
		for _, in := range p.Inputs {
			if tainted[in] {
				tainted[p.Path] = true
				out = append(out, p.Path)
				break
			}
		}
	}
	return out
}

// Close releases the ledger file.
func (l *Ledger) Close() error { return l.j.Close() }
