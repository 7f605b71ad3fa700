package cosmotools

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/integrity"
	"repro/internal/testsupport"
)

// allocBound is the most ParseConfig may allocate for a stream: the
// scanner's buffer plus, per line, a copy of the line and, per new
// section, a map and its order entry. A run of distinct short sections
// ("[0]\n[1]\n…") measures ~31 bytes per input byte.
func allocBound(stream []byte) uint64 { return 64*uint64(len(stream)) + 16<<10 }

// writeConfig renders a config canonically: the global keys, then every
// section in file order, each section's keys sorted.
func writeConfig(c *Config) string {
	var b strings.Builder
	writeKeys := func(kv map[string]string) {
		keys := make([]string, 0, len(kv))
		for k := range kv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s = %s\n", k, kv[k])
		}
	}
	writeKeys(c.Section(""))
	for _, name := range c.SectionNames() {
		fmt.Fprintf(&b, "[%s]\n", name)
		writeKeys(c.Section(name))
	}
	return b.String()
}

// FuzzParseConfig holds the parser of the input deck and the CosmoTools
// configuration to three invariants on any input: ParseConfig returns
// rather than panics; it allocates no more than allocBound; and a config
// it accepts, written canonically, parses back to the same section
// names and the same keys and values in every section.
func FuzzParseConfig(f *testing.F) {
	deck := `
[simulation]
np = 16
ng = 16
box = 24
z_init = 50
z_final = 0
steps = 25
snapshot_every = 5
seed = 4
output_dir = /tmp/run

[cosmotools]
enabled = true
config = /tmp/run/ct.ini
`
	seeds := []string{
		deck,
		"[simulation]\nnp = 16\nsteps = 5\nbox = 24\noutput_dir = out\n\n[cosmotools]\nenabled = false\n",
		"[halofinder]\nsteps = 25\nlinking_length = 0.3\nmin_size = 10\n",
		"\n# comment\nglobal_key = 1\n\n[powerspectrum]\nevery = 5\ngrid = 64\n\n[halofinder]\nlinking_length = 0.2\nsteps = 10, 20, 30\n",
		"[a]\nkey = val\n",
		"; comment\n[s]\r\nk = v = w\r\n[s]\nk =\n",
		"[unclosed\nkey=1",
		"[]\n",
		"keywithoutvalue\n",
		"= novalue\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	for _, s := range seeds[:4] {
		f.Add([]byte(s[:len(s)/2]))
		for _, frac := range []float64{0.1, 0.4, 0.7} {
			flipped := []byte(s)
			integrity.FlipBit(flipped, frac)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		var cfg *Config
		var err error
		if got := testsupport.Allocated(func() { cfg, err = ParseConfig(bytes.NewReader(stream)) }); got > allocBound(stream) {
			t.Fatalf("ParseConfig allocated %d bytes for a %d-byte stream", got, len(stream))
		}
		if err != nil {
			return
		}
		canon := writeConfig(cfg)
		again, err := ParseConfig(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if !slices.Equal(cfg.SectionNames(), again.SectionNames()) {
			t.Fatalf("sections %q re-parse as %q", cfg.SectionNames(), again.SectionNames())
		}
		for _, name := range append(cfg.SectionNames(), "") {
			if !maps.Equal(cfg.Section(name), again.Section(name)) {
				t.Fatalf("section %q: %q re-parses as %q", name, cfg.Section(name), again.Section(name))
			}
		}
	})
}
